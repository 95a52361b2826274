package mapreduce

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// The coordinator run journal makes the coordinator itself restartable.
// The checkpoint mirror (checkpoint.go, dist.go) lets the cluster
// survive *worker* death, but the mirror lives in coordinator memory:
// kill the coordinator and the whole multi-round run starts over. The
// journal persists the coordinator's run state — every job result the
// pipeline produced (the resident-partition mirror, as canonical
// encodePairs blobs) plus round-boundary commit records — to an
// append-only segment file, framed with the same uvarint-length +
// CRC-32 scheme as the checkpoint run files.
//
// Atomicity is the commit record: job records buffer in user space and
// are flushed to the OS only when a round commits, so a coordinator
// killed mid-round leaves a journal whose validated prefix ends at the
// last committed round. The loader CRC-walks the newest manifest
// segment, truncates strictly after the last commit record, and hands
// the surviving job records to the cluster as a replay queue: a
// restarted run (DistClusterOptions.Resume / -dist-resume) re-executes
// the same deterministic pipeline, and each journaled job is satisfied
// from the queue — its partitions re-registered, to be re-seeded onto
// the fresh workers or decoded by a fetch — instead of being recomputed.
// The first job past the queue runs live, which is exactly "replay from
// the last committed round boundary".
//
// Segments: each coordinator incarnation appends to its own
// journal-<n>.log. A resumed incarnation replays segment A while
// re-appending every consumed record to its own segment B, so B grows
// into a self-contained copy of the run; the manifest flips to B only
// at the first commit after the replay queue drains (B never ends
// mid-history), and a crash before the flip simply resumes from A
// again. The manifest keeps the last two segments, mirroring the
// checkpoint writer's retention.

// journalManifestName is the manifest file within a journal directory.
const journalManifestName = "JOURNAL"

// journalFormat tags every manifest line with the generation of what
// the segments' records mean. Resident records are stored per
// partition, so the tag covers the partitioner as much as the framing:
// "v2" was the first generation in which every integer-kind key hashes
// through mix64 (see keyShape.hash); "v3" kept that mapping and added a
// side-output section to every partition of a job record; "v4" drops
// the record-kind byte (every job's result is a resident record). The
// journal records job outputs only, so remote.Proto 9 and 10, which
// changed what some jobs shuffle and none of what they retain, left it
// "v4"; "v5" (Proto 11) marks that the outputs of mm-cleanup,
// stack-update and stack-filter changed type; "v6" (Proto 12) marks
// that the similarity join's index output is encoded as one group per
// term; "v7" (Proto 15) marks that the mirror blobs it holds are plain
// columns, never the retired flate-compressed form (marker 0x03), which
// a v6 journal written with wire compression on may hold. A manifest
// with any other tag was written under a different key-to-partition
// mapping or record layout; replaying it would seed a node's state and
// its neighbours' messages into different partitions, or misparse the
// records, so resume refuses it. There is no compatibility reader.
const journalFormat = "v7"

// journalKeepSegs bounds retained segment files: the current segment
// and the one it resumed from.
const journalKeepSegs = 2

// Journal record types (first body byte).
const (
	journalRecJob    = 1
	journalRecCommit = 2
)

// journalRecord is one journaled job result: the job's worker-resident
// output, one blob per partition (the checkpoint-mirror image). A
// resumed run re-registers it as residency with no live location, so
// ensureResident re-seeds every partition onto the resumed cluster's
// workers.
type journalRecord struct {
	seq    uint64
	name   string
	counts []int64
	blobs  [][]byte
	// sides is the job's side output by partition (see SideEmitter), nil
	// when it had none.
	sides [][]uint64
}

// distJournal is the coordinator's append-only run journal. Safe for
// concurrent use; jobs run one at a time but stats readers and the
// crash hook cross goroutines.
type distJournal struct {
	mu  sync.Mutex
	dir string
	f   *os.File
	bw  *bufio.Writer
	seg string
	err error // first write failure, latched: durability must fail loudly

	// pending is the replay queue loaded from the previous incarnation's
	// segment: job records up to its last commit, in execution order.
	pending []*journalRecord
	// prevSeg is the segment pending was loaded from; kept in the
	// manifest until this incarnation's segment is self-contained.
	prevSeg string
	// caughtUp flips when the replay queue drains; flipped when the
	// manifest names this incarnation's segment.
	caughtUp bool
	flipped  bool
	// round is the last committed round of the resumed run, for
	// observability.
	round int

	bytes atomic.Int64

	// crashAfter, when positive, SIGKILLs this process after that many
	// appended records — the deterministic coordinator-crash hook the
	// resume chaos suite drives. Test instrumentation only.
	crashAfter int
	appended   int
}

// openDistJournal opens dir for journaling. With resume set it first
// loads the previous incarnation's committed history as the replay
// queue; either way every new record goes to a fresh segment file.
func openDistJournal(dir string, resume bool, crashAfter int) (*distJournal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("mapreduce: dist journal: %w", err)
	}
	j := &distJournal{dir: dir, crashAfter: crashAfter}
	if resume {
		if err := j.loadLatest(); err != nil {
			return nil, err
		}
	}
	idx := 1
	if segs, err := filepath.Glob(filepath.Join(dir, "journal-*.log")); err == nil {
		for _, s := range segs {
			var n int
			if _, err := fmt.Sscanf(filepath.Base(s), "journal-%06d.log", &n); err == nil && n >= idx {
				idx = n + 1
			}
		}
	}
	j.seg = fmt.Sprintf("journal-%06d.log", idx)
	f, err := os.Create(filepath.Join(dir, j.seg))
	if err != nil {
		return nil, fmt.Errorf("mapreduce: dist journal: %w", err)
	}
	j.f = f
	j.bw = bufio.NewWriterSize(f, 1<<16)
	if len(j.pending) == 0 {
		// Nothing to replay: this segment is the history from record one,
		// so it can own the manifest immediately.
		j.caughtUp = true
		j.flipLocked()
	}
	return j, nil
}

// loadLatest restores the replay queue from the newest usable manifest
// segment: CRC-validate frames until the first damaged one, keep the
// job records up to the last commit record, discard the rest (the
// crashed round re-runs live). A directory with no usable committed
// history yields an empty queue — the run simply starts over; a
// manifest of another journalFormat is an error.
func (j *distJournal) loadLatest() error {
	raw, err := os.ReadFile(filepath.Join(j.dir, journalManifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("mapreduce: dist journal: %w", err)
	}
	segs, err := parseJournalManifest(raw, j.dir)
	if err != nil {
		return err
	}
	for i := len(segs) - 1; i >= 0; i-- {
		pending, round, ok := loadJournalSegment(filepath.Join(j.dir, segs[i]))
		if ok {
			j.pending = pending
			j.prevSeg = segs[i]
			j.round = round
			return nil
		}
	}
	return nil
}

// parseJournalManifest returns the segment files a manifest names,
// oldest first. Every line must carry this build's journalFormat tag and
// name a file of the journal directory itself.
func parseJournalManifest(raw []byte, dir string) ([]string, error) {
	var segs []string
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 || fields[1] != journalFormat {
			return nil, fmt.Errorf("mapreduce: dist journal: manifest line %q in %s is not tagged %s: "+
				"the journal was written by a different partitioner or record layout and cannot be resumed by this build",
				line, dir, journalFormat)
		}
		if filepath.Base(fields[0]) != fields[0] {
			return nil, fmt.Errorf("mapreduce: dist journal: manifest line %q in %s names a segment outside the journal directory", line, dir)
		}
		segs = append(segs, fields[0])
	}
	return segs, nil
}

// loadJournalSegment parses one segment, returning the job records up
// to its last commit and that commit's round. ok is false when the
// segment holds no committed history at all (unreadable, empty, or
// crashed before its first commit) — the caller falls back to an older
// segment.
func loadJournalSegment(path string) (pending []*journalRecord, round int, ok bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false
	}
	return parseJournalSegment(data)
}

// parseJournalSegment is loadJournalSegment over the file's bytes.
func parseJournalSegment(data []byte) (pending []*journalRecord, round int, ok bool) {
	var recs []*journalRecord
	committed := -1 // index into recs just past the last committed job record
	for len(data) > 0 {
		n, m := binary.Uvarint(data)
		if m <= 0 || n < 5 || n > uint64(len(data)-m) { // a type byte and the CRC at least
			break // torn tail: the crash point
		}
		frame := data[m : m+int(n)]
		data = data[m+int(n):]
		body, sum := frame[:len(frame)-4], frame[len(frame)-4:]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(sum) {
			break
		}
		switch body[0] {
		case journalRecJob:
			rec, err := decodeJournalJob(body[1:])
			if err != nil {
				return nil, 0, false // structurally invalid past a valid CRC: refuse the segment
			}
			recs = append(recs, rec)
		case journalRecCommit:
			r, w := binary.Uvarint(body[1:])
			if w <= 0 {
				return nil, 0, false
			}
			committed = len(recs)
			round = int(r)
		default:
			return nil, 0, false
		}
	}
	if committed < 0 {
		return nil, 0, false
	}
	return recs[:committed], round, true
}

func decodeJournalJob(body []byte) (*journalRecord, error) {
	rec := &journalRecord{}
	bad := fmt.Errorf("malformed journal job record")
	next := func() (uint64, bool) {
		v, w := binary.Uvarint(body)
		if w <= 0 {
			return 0, false
		}
		body = body[w:]
		return v, true
	}
	seq, ok := next()
	if !ok {
		return nil, bad
	}
	rec.seq = seq
	nameLen, ok := next()
	if !ok || uint64(len(body)) < nameLen {
		return nil, bad
	}
	rec.name = string(body[:nameLen])
	body = body[nameLen:]
	// A partition costs at least three bytes and a side value one: both
	// counts are held to the bytes left before anything is allocated.
	nparts, ok := next()
	if !ok || nparts > uint64(len(body))/3 {
		return nil, bad
	}
	rec.counts = make([]int64, nparts)
	rec.blobs = make([][]byte, nparts)
	for p := uint64(0); p < nparts; p++ {
		count, ok1 := next()
		blobLen, ok2 := next()
		if !ok1 || !ok2 || uint64(len(body)) < blobLen {
			return nil, bad
		}
		rec.counts[p] = int64(count)
		rec.blobs[p] = body[:blobLen]
		body = body[blobLen:]
		nSide, ok := next()
		if !ok || nSide > uint64(len(body)) {
			return nil, bad
		}
		if nSide == 0 {
			continue
		}
		if rec.sides == nil {
			rec.sides = make([][]uint64, nparts)
		}
		rec.sides[p] = make([]uint64, nSide)
		for k := range rec.sides[p] {
			if rec.sides[p][k], ok = next(); !ok {
				return nil, bad
			}
		}
	}
	if len(body) != 0 {
		return nil, bad
	}
	return rec, nil
}

// appendJob journals one completed job's result. Buffered: the record
// reaches the OS at the next commit, which is the atomicity unit.
func (j *distJournal) appendJob(rec *journalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendJobLocked(rec)
}

func (j *distJournal) appendJobLocked(rec *journalRecord) error {
	return j.appendFrameLocked(encodeJournalJob(rec))
}

// encodeJournalJob is decodeJournalJob's inverse, type byte included.
func encodeJournalJob(rec *journalRecord) []byte {
	body := []byte{journalRecJob}
	body = binary.AppendUvarint(body, rec.seq)
	body = binary.AppendUvarint(body, uint64(len(rec.name)))
	body = append(body, rec.name...)
	body = binary.AppendUvarint(body, uint64(len(rec.counts)))
	for p := range rec.counts {
		body = binary.AppendUvarint(body, uint64(rec.counts[p]))
		var blob []byte
		if p < len(rec.blobs) {
			blob = rec.blobs[p]
		}
		body = binary.AppendUvarint(body, uint64(len(blob)))
		body = append(body, blob...)
		var side []uint64
		if p < len(rec.sides) {
			side = rec.sides[p]
		}
		body = binary.AppendUvarint(body, uint64(len(side)))
		for _, v := range side {
			body = binary.AppendUvarint(body, v)
		}
	}
	return body
}

// commit writes a round-boundary commit record and flushes everything
// buffered so far: records before a commit are durable (modulo the
// page cache — same stance as the checkpoint writer), records after it
// are discarded by the loader. The first commit past a drained replay
// queue also flips the manifest to this incarnation's segment.
func (j *distJournal) commit(round int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	body := []byte{journalRecCommit}
	body = binary.AppendUvarint(body, uint64(round))
	if err := j.appendFrameLocked(body); err != nil {
		return err
	}
	if err := j.bw.Flush(); err != nil {
		j.err = fmt.Errorf("mapreduce: dist journal: %w", err)
		return j.err
	}
	if !j.flipped && j.caughtUp {
		j.flipLocked()
	}
	return nil
}

func (j *distJournal) appendFrameLocked(body []byte) error {
	if j.err != nil {
		return j.err
	}
	frame := journalFrame(body)
	if _, err := j.bw.Write(frame); err != nil {
		j.err = fmt.Errorf("mapreduce: dist journal: %w", err)
		return j.err
	}
	j.bytes.Add(int64(len(frame)))
	j.appended++
	if j.crashAfter > 0 && j.appended >= j.crashAfter {
		// The deterministic coordinator-crash hook: die the hard way, with
		// whatever the journal has actually committed. SIGKILL, not
		// os.Exit, so no deferred cleanup can soften the crash.
		if p, err := os.FindProcess(os.Getpid()); err == nil {
			p.Kill()
		}
		select {}
	}
	return nil
}

// journalFrame wraps one record body in the segment framing: uvarint
// length, body, CRC-32 of the body.
func journalFrame(body []byte) []byte {
	frame := binary.AppendUvarint(nil, uint64(len(body)+4))
	frame = append(frame, body...)
	return binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(body))
}

// takeJob pops the next record off the replay queue when it matches
// the job the pipeline is about to run, re-appending it to this
// incarnation's segment so the new segment stays self-contained. A
// name mismatch means the pipeline diverged from the journaled run —
// resuming would silently compute garbage, so it fails loudly.
// (nil, nil) means the queue is drained: run the job live.
func (j *distJournal) takeJob(name string) (*journalRecord, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.pending) == 0 {
		j.caughtUp = true
		return nil, nil
	}
	rec := j.pending[0]
	if rec.name != name {
		return nil, fmt.Errorf("mapreduce: dist journal: resumed pipeline diverged: journal has job %q, run asked for %q", rec.name, name)
	}
	j.pending = j.pending[1:]
	if len(j.pending) == 0 {
		j.caughtUp = true
	}
	if err := j.appendJobLocked(rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// flipLocked points the manifest at this incarnation's segment
// (keeping the resumed-from segment as the fallback) and prunes older
// segment files. tmp + rename, like the checkpoint manifest.
func (j *distJournal) flipLocked() {
	var sb strings.Builder
	keep := map[string]bool{j.seg: true}
	if j.prevSeg != "" {
		fmt.Fprintf(&sb, "%s %s\n", j.prevSeg, journalFormat)
		keep[j.prevSeg] = true
	}
	fmt.Fprintf(&sb, "%s %s\n", j.seg, journalFormat)
	tmp := filepath.Join(j.dir, journalManifestName+".tmp")
	if err := os.WriteFile(tmp, []byte(sb.String()), 0o644); err != nil {
		j.err = fmt.Errorf("mapreduce: dist journal: %w", err)
		return
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, journalManifestName)); err != nil {
		j.err = fmt.Errorf("mapreduce: dist journal: %w", err)
		return
	}
	j.flipped = true
	if segs, err := filepath.Glob(filepath.Join(j.dir, "journal-*.log")); err == nil {
		for _, s := range segs {
			if !keep[filepath.Base(s)] {
				os.Remove(s)
			}
		}
	}
}

// close flushes and closes the segment file.
func (j *distJournal) close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.bw != nil {
		j.bw.Flush()
	}
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}
