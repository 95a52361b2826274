package mapreduce

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mapreduce/remote"
)

// graceHB is the reconnect-test tempo: the elastic-scheduling heartbeat
// cadence plus a reconnect grace window, which flips every worker
// session into resume mode (sequence-numbered frames, retransmit rings,
// redial-and-reattach on transport error).
func graceHB() DistClusterOptions {
	opts := fastHB()
	opts.ReconnectGrace = 5 * time.Second
	return opts
}

// TestDistReconnectSeverRedial is the tentpole chaos matrix for session
// resume: a transport fault severs one worker session at a seed-derived
// frame index — alternating directions, as in TestDistFaultMatrix — but
// with ReconnectGrace set the sever must be absorbed invisibly. The
// worker redials, re-attaches by token, both sides replay un-acked
// frames, and the run finishes bit-identical with ZERO reseeded
// partitions and no worker ever declared lost.
func TestDistReconnectSeverRedial(t *testing.T) {
	const rounds = 3
	want := memoryRingReference(t, rounds)
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cl := startSchedCluster(t, 2, graceHB(), nil)
			f := &remote.Fault{Op: remote.FaultSever}
			if seed%2 == 0 {
				f.AfterWrites = remote.FaultPoint(seed, 1, 12)
			} else {
				f.AfterReads = remote.FaultPoint(seed, 1, 8)
			}
			if err := cl.InjectFault(int(seed)%2, f); err != nil {
				t.Fatal(err)
			}
			got := ringRounds(t, distCfg4(cl, "ring-step"), rounds)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("severed-then-redialed run diverges from memory backend")
			}
			rs := cl.RecoveryStats()
			if rs.WorkerReconnects < 1 {
				t.Fatalf("sever absorbed without a reconnect: %+v", rs)
			}
			if rs.Reseeded != 0 || rs.WorkersLost != 0 {
				t.Fatalf("resume escalated to loss recovery: lost=%d reseeded=%d",
					rs.WorkersLost, rs.Reseeded)
			}
			t.Logf("seed %d: reconnects=%d frames replayed=%d",
				seed, rs.WorkerReconnects, rs.FramesReplayed)
		})
	}
}

// TestDistReconnectRacingSpeculation pins the interaction between
// session resume and the straggler detector: a recovering worker is
// mid-redial exactly when the tail-latency monitor would love to
// speculate on it. The health monitor must skip recovering sessions, so
// the run still completes bit-identical via reattach, not via a backup
// attempt racing a ghost.
func TestDistReconnectRacingSpeculation(t *testing.T) {
	const rounds = 3
	want := memoryRingReference(t, rounds)
	cl := startSchedCluster(t, 2, graceHB(), nil)
	if err := cl.InjectFault(1, &remote.Fault{
		Op: remote.FaultSever, AfterWrites: remote.FaultPoint(11, 1, 12),
	}); err != nil {
		t.Fatal(err)
	}
	cfg := distCfg4(cl, "ring-step")
	cfg.SpeculationFactor = 4
	got := ringRounds(t, cfg, rounds)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("reconnect under speculation diverges from memory backend")
	}
	rs := cl.RecoveryStats()
	if rs.WorkerReconnects < 1 {
		t.Fatalf("sever absorbed without a reconnect: %+v", rs)
	}
	if rs.Reseeded != 0 || rs.WorkersLost != 0 {
		t.Fatalf("resume escalated to loss recovery: lost=%d reseeded=%d",
			rs.WorkersLost, rs.Reseeded)
	}
}

// TestDistClusterCloseIdempotent pins the Close contract: the second
// Close — the deferred one after an explicit shutdown — re-reports the
// first close's verdict instead of re-running teardown.
func TestDistClusterCloseIdempotent(t *testing.T) {
	cl := startTestCluster(t, 2)
	if _, _, err := RunDS(context.Background(), distCfg4(cl, "ring-step"),
		PartitionDataset(ringInput(), 4), ringMap, ringReduce); err != nil {
		t.Fatal(err)
	}
	err1 := cl.Close()
	err2 := cl.Close()
	if err1 != nil {
		t.Fatalf("first close: %v", err1)
	}
	if err2 != err1 {
		t.Fatalf("second close changed the verdict: %v, want %v", err2, err1)
	}
	if err3 := cl.Close(); err3 != err1 {
		t.Fatalf("third close changed the verdict: %v", err3)
	}
}

// TestDistFaultCutCompressedSeed severs a session in the middle of a
// frame — a real length prefix followed by a truncated payload — while
// WireCompression is on, so the surviving side must fail cleanly out of
// the flate path on a torn compressed blob, and recovery must reseed
// the dead worker's partitions by inflating the checkpoint mirror's
// compressed blobs. No grace window here: a cut is fatal by design.
func TestDistFaultCutCompressedSeed(t *testing.T) {
	const rounds = 3
	want := memoryRingReference(t, rounds)
	cl := startTestCluster(t, 2)
	// Frame 14 lands in a chained round, after the first round's output
	// went worker-resident: recovery must restore the dead worker's
	// partitions from the checkpoint mirror's compressed blobs, not
	// re-ship coordinator-local input.
	if err := cl.InjectFault(0, &remote.Fault{
		Op:          remote.FaultCut,
		AfterWrites: 14,
		CutBytes:    7,
	}); err != nil {
		t.Fatal(err)
	}
	cfg := distCfg4(cl, "ring-step")
	cfg.WireCompression = true
	got := ringRounds(t, cfg, rounds)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("mid-frame cut run diverges from memory backend")
	}
	rs := cl.RecoveryStats()
	if rs.WorkersLost < 1 || rs.Recoveries < 1 {
		t.Fatalf("cut did not trigger recovery: %+v", rs)
	}
	if rs.Reseeded < 1 {
		t.Fatalf("recovery never reseeded from the compressed mirror: %+v", rs)
	}
	t.Logf("cut recovery: lost=%d retried=%d reseeded=%d",
		rs.WorkersLost, rs.Recoveries, rs.Reseeded)
}

// TestDistWorkerStartsBeforeCoordinator pins the startup retry: a
// worker launched before the coordinator is listening keeps redialing
// with backoff instead of failing its first connect.
func TestDistWorkerStartsBeforeCoordinator(t *testing.T) {
	leakCheck(t)
	// Reserve an address, then free it for the coordinator to claim.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := ServeDistWorkerOpts(ctx, addr, DistWorkerOptions{
			Reconnect: ReconnectPolicy{Attempts: 40, BaseDelay: 25 * time.Millisecond, MaxDelay: 250 * time.Millisecond},
		})
		if err != nil {
			t.Logf("early worker: %v", err)
		}
	}()
	// Let the worker burn a few failed dials against the dead address
	// before the coordinator shows up.
	time.Sleep(150 * time.Millisecond)
	cl, err := StartDistCluster(1, DistClusterOptions{Listen: addr, Timeout: 30 * time.Second})
	if err != nil {
		cancel()
		wg.Wait()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		cancel()
		wg.Wait()
	})
	want := memoryRingReference(t, 1)
	got := ringRounds(t, distCfg4(cl, "ring-step"), 1)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("early-worker run diverges from memory backend")
	}
}

// TestDistJournalResume is the in-process crash-resume pipeline: a
// journaling run commits two rounds and stops dead before the third —
// the moral equivalent of a coordinator crash at a round boundary. A
// fresh cluster over fresh workers resumes from the same journal
// directory: the committed rounds replay from journal records (no
// re-execution), the journaled mirror reseeds residency onto the new
// workers, and the final round runs live — bit-identical end to end.
func TestDistJournalResume(t *testing.T) {
	const rounds = 3
	want := memoryRingReference(t, rounds)
	dir := t.TempDir()

	opts := DistClusterOptions{Timeout: 30 * time.Second, JournalDir: dir}
	cl1 := startSchedCluster(t, 2, opts, nil)
	cfg1 := distCfg4(cl1, "ring-step")
	d1 := NewDriver(cfg1)
	_, err := Loop(context.Background(), d1, PartitionDataset(ringInput(), cfg1.reducers()),
		func(ctx context.Context, round int, st *Dataset[int32, int64]) (*Dataset[int32, int64], error) {
			if round == rounds-1 {
				return nil, nil // crash point: the final round never runs
			}
			next, _, err := RunDS(ctx, cfg1, st, ringMap, ringReduce)
			return next, err
		})
	if err != nil {
		t.Fatalf("journaling run: %v", err)
	}
	rs1 := cl1.RecoveryStats()
	if rs1.JournalBytes <= 0 {
		t.Fatal("journaling run recorded no journal bytes")
	}
	if err := cl1.Close(); err != nil {
		t.Fatalf("closing crashed-run cluster: %v", err)
	}

	opts2 := DistClusterOptions{Timeout: 30 * time.Second, JournalDir: dir, Resume: true}
	cl2 := startSchedCluster(t, 2, opts2, nil)
	cfg2 := distCfg4(cl2, "ring-step")
	d2 := NewDriver(cfg2)
	final, err := Loop(context.Background(), d2, PartitionDataset(ringInput(), cfg2.reducers()),
		func(ctx context.Context, round int, st *Dataset[int32, int64]) (*Dataset[int32, int64], error) {
			if round == rounds {
				return nil, nil
			}
			next, _, err := RunDS(ctx, cfg2, st, ringMap, ringReduce)
			return next, err
		})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if err := final.Materialize(); err != nil {
		t.Fatal(err)
	}
	if got := final.Collect(); !reflect.DeepEqual(got, want) {
		t.Fatal("resumed run diverges from memory backend")
	}
	rs2 := cl2.RecoveryStats()
	if rs2.JobsReplayed != rounds-1 {
		t.Fatalf("resumed run replayed %d jobs from the journal, want %d", rs2.JobsReplayed, rounds-1)
	}
	t.Logf("resume: %d jobs replayed, %dB journal", rs2.JobsReplayed, rs2.JournalBytes)
}

// TestDistJournalResumeFlat: a Run job (flat input, collected output)
// on a journaled cluster is journaled like any other job, as its
// resident record, and on resume it is replayed from that record — the
// output decoded from the journaled partition blobs — without its map
// function running again.
func TestDistJournalResumeFlat(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	var mapCalls atomic.Int64
	countingMap := func(k int32, v int64, out Emitter[int32, int64]) error {
		mapCalls.Add(1)
		return ringMap(k, v, out)
	}
	run := func(cl *DistCluster) []Pair[int32, int64] {
		t.Helper()
		d := NewDriver(distCfg4(cl, "ring-step"))
		// An observed job on a journaling cluster is a commit point.
		out, stats, err := Run(ctx, d.Config("ring-step"), ringInput(), countingMap, ringReduce)
		if err == nil {
			err = d.Observe(stats)
		}
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	opts := DistClusterOptions{Timeout: 30 * time.Second, JournalDir: dir}
	cl1 := startSchedCluster(t, 2, opts, nil)
	want := run(cl1)
	if err := cl1.Close(); err != nil {
		t.Fatal(err)
	}
	if mapCalls.Load() != ringN {
		t.Fatalf("the journaling run mapped %d records, want %d", mapCalls.Load(), ringN)
	}

	opts2 := DistClusterOptions{Timeout: 30 * time.Second, JournalDir: dir, Resume: true}
	cl2 := startSchedCluster(t, 2, opts2, nil)
	got := run(cl2)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("journal-replayed Run job diverges from the original")
	}
	if mapCalls.Load() != ringN {
		t.Fatalf("the resumed run mapped %d more records: the job was re-run, not replayed", mapCalls.Load()-ringN)
	}
	if rs := cl2.RecoveryStats(); rs.JobsReplayed != 1 {
		t.Fatalf("resume replayed %d jobs, want 1", rs.JobsReplayed)
	}
}

// TestDistJournalRefusesOtherPartitioner pins the loud failure a
// partitioner or record-layout change owes its journals: a manifest
// tagged by an older build ("v1", whose resident records sit in the
// partitions the old key hash chose; "v2", whose records carry no
// side-output section; "v3", whose records carry a kind byte; "v4", whose
// mm-cleanup and stack-update records are other types; "v5", whose
// similarity-join index records are other bytes) must make
// -dist-resume fail with a clear error rather than replay the segments it
// names — and a run that does not resume starts over, with a manifest in
// the current format.
func TestDistJournalRefusesOtherPartitioner(t *testing.T) {
	for _, tag := range []string{"v1", "v2", "v3", "v4", "v5"} {
		dir := t.TempDir()
		manifest := filepath.Join(dir, journalManifestName)
		if err := os.WriteFile(manifest, []byte("journal-000001.log "+tag+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "journal-000001.log"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := openDistJournal(dir, true, 0)
		if err == nil || !strings.Contains(err.Error(), "written by a different partitioner or record layout") {
			t.Fatalf("resuming a %s journal: got %v, want a different-generation error", tag, err)
		}
		if !strings.Contains(err.Error(), "journal-000001.log "+tag) || !strings.Contains(err.Error(), "is not tagged v6") {
			t.Fatalf("the error does not name both the manifest's tag and this build's: %v", err)
		}

		j, err := openDistJournal(dir, false, 0)
		if err != nil {
			t.Fatalf("a fresh run over an old journal directory: %v", err)
		}
		j.close()
		raw, err := os.ReadFile(manifest)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := string(raw), "journal-000002.log "+journalFormat+"\n"; got != want {
			t.Fatalf("fresh manifest %q, want %q", got, want)
		}
		j2, err := openDistJournal(dir, true, 0)
		if err != nil {
			t.Fatalf("resuming this build's own manifest: %v", err)
		}
		j2.close()
	}
}

// TestDecodePairsTruncatedCompressed pins the torn-blob contract the
// cut fault relies on: a flate-compressed pair blob truncated at any
// point must either decode to an error or — when only trailing flate
// padding was cut — reproduce the pairs exactly. Never a panic, never
// wrong data reported as success.
func TestDecodePairsTruncatedCompressed(t *testing.T) {
	pairs := make([]Pair[int32, int64], 400)
	for i := range pairs {
		pairs[i] = Pair[int32, int64]{Key: int32(i % 7), Value: 42}
	}
	blob := encodeTestPairs(t, pairs, true, nil)
	errored := 0
	for cut := 1; cut < len(blob); cut++ {
		out, _, derr := decodeTestPairs[int32, int64](t, blob[:cut], len(pairs))
		if derr != nil {
			errored++
			continue
		}
		if !reflect.DeepEqual(out, pairs) {
			t.Fatalf("blob truncated at %d/%d decoded silently to wrong data", cut, len(blob))
		}
	}
	if errored == 0 {
		t.Fatal("no truncation point ever surfaced a decode error")
	}
}
