package mapreduce

import (
	"fmt"

	"repro/internal/mapreduce/remote"
)

// ResidentLeft reports what the computations run so far left behind on
// an idle cluster, for the external tests that drive whole algorithms
// (package mapreduce_test): the coordinator's residency records, and the
// partitions — resident or seeded — the workers still hold, found by
// fetching every job sequence number ever allocated from every live
// worker. The fetch moves what it finds, so call it last.
func (cl *DistCluster) ResidentLeft() (coordinator, workers int, err error) {
	cl.mu.Lock()
	coordinator, last := len(cl.residency), cl.seq
	cl.mu.Unlock()
	for _, w := range cl.liveWorkers() {
		conn := cl.conns[w]
		for seq := uint64(1); seq <= last; seq++ {
			if err := conn.WriteFrame(remote.AppendUvarint([]byte{byte(remote.MsgFetch)}, seq)); err != nil {
				return 0, 0, err
			}
			for done := false; !done; {
				payload, err := conn.ReadFrame()
				if err != nil {
					return 0, 0, err
				}
				switch t := remote.MsgType(payload[0]); t {
				case remote.MsgPong:
				case remote.MsgPart:
					workers++
				case remote.MsgFetchDone:
					done = true
				default:
					return 0, 0, fmt.Errorf("unexpected %v answering a fetch", t)
				}
			}
		}
	}
	return coordinator, workers, nil
}
