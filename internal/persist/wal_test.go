package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/hotindex/hot/internal/chaos"
)

type walRec struct {
	op  WalOp
	key []byte
	tid uint64
}

// genWalRecs produces a deterministic mixed op stream.
func genWalRecs(n int) []walRec {
	rs := make([]walRec, n)
	for i := range rs {
		key := []byte(fmt.Sprintf("key-%05d", i*7%n))
		switch i % 5 {
		case 0, 1:
			rs[i] = walRec{WalInsert, key, uint64(i + 1)}
		case 2, 3:
			rs[i] = walRec{WalUpsert, key, uint64(i*3 + 1)}
		default:
			rs[i] = walRec{WalDelete, key, 0}
		}
	}
	return rs
}

// buildWAL writes rs into a fresh log at path and closes it.
func buildWAL(t *testing.T, path string, base uint64, rs []walRec) {
	t.Helper()
	w, err := CreateWAL(path, base, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if _, err := w.Append(r.op, r.key, r.tid); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// replayAll replays a log file, collecting its records.
func replayAll(t *testing.T, path string) ([]walRec, WALReplayReport) {
	t.Helper()
	var got []walRec
	rep, err := ReplayWALFile(path, func(op WalOp, key []byte, tid uint64) error {
		got = append(got, walRec{op, append([]byte(nil), key...), tid})
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, rep
}

func sameRecs(a, b []walRec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].op != b[i].op || !bytes.Equal(a[i].key, b[i].key) || a[i].tid != b[i].tid {
			return false
		}
	}
	return true
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	rs := genWalRecs(500)
	buildWAL(t, path, 7, rs)
	got, rep := replayAll(t, path)
	if !rep.Complete || rep.Damage != nil {
		t.Fatalf("intact log: rep=%+v", rep)
	}
	if rep.Base != 7 || rep.Records != 500 || rep.LastLSN != 7+500 {
		t.Fatalf("report = %+v", rep)
	}
	if !sameRecs(got, rs) {
		t.Fatalf("replayed records diverge from appended")
	}
	st, _ := os.Stat(path)
	if rep.ValidSize != st.Size() {
		t.Fatalf("ValidSize %d, file size %d", rep.ValidSize, st.Size())
	}
}

// TestWALRecordGoldenBytes pins the record serialization byte for byte, one
// record of each op kind: logs written by every earlier version must keep
// replaying, and logs written now must replay under them.
func TestWALRecordGoldenBytes(t *testing.T) {
	for _, c := range []struct {
		op   WalOp
		lsn  uint64
		key  []byte
		tid  uint64
		want string
	}{
		{WalCheckpoint, 300, nil, 0, "0500000099abfe0200ac020000"},
		{WalInsert, 1, []byte("a"), 7, "05000000c5f893420101016107"},
		{WalUpsert, 301, []byte("http://example.com/a/b"), MaxTID,
			"23000000b7e9327f02ad0216687474703a2f2f6578616d706c652e636f6d2f612f62ffffffffffffffff7f"},
		{WalDelete, 1 << 40, []byte{0, 0xff, 0x80}, 0, "0c000000d04eb625038080808080200300ff8000"},
	} {
		// Onto a non-empty buffer: the length|CRC word is patched in place.
		got := appendWalRecord([]byte("prior"), c.op, c.lsn, c.key, c.tid)
		if !bytes.HasPrefix(got, []byte("prior")) || fmt.Sprintf("%x", got[5:]) != c.want {
			t.Errorf("%v record = %x, want prior|%s", c.op, got, c.want)
		}
	}
}

// typicalURLKey has the length of the benchmark's url keys (≈ 55 bytes).
var typicalURLKey = []byte("http://www.example.com/some/path/of/typical/url/length")

// TestWALAppendAllocs: an append serializes straight into the log's buffer
// and the two buffers trade places at every commit, so a steady append
// stream allocates nothing.
func TestWALAppendAllocs(t *testing.T) {
	w, err := CreateWAL(filepath.Join(t.TempDir(), "wal.log"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const appends = 1000
	perRun := testing.AllocsPerRun(20, func() {
		var lsn uint64
		for i := 0; i < appends; i++ {
			lsn, _ = w.Append(WalUpsert, typicalURLKey, uint64(i))
		}
		if err := w.Commit(lsn); err != nil {
			t.Fatal(err)
		}
	})
	if perAppend := perRun / appends; perAppend >= 0.1 {
		t.Fatalf("%.3f allocations per append, want < 0.1", perAppend)
	}
}

// BenchmarkWALAppend is the cost of logging one record of a typical url
// key, one Commit (write + fsync) per 1 024 appends amortized in.
func BenchmarkWALAppend(b *testing.B) {
	w, err := CreateWAL(filepath.Join(b.TempDir(), "wal.log"), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lsn, err := w.Append(WalUpsert, typicalURLKey, uint64(i))
		if err == nil && i%1024 == 1023 {
			err = w.Commit(lsn)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func TestWALEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, rep := replayAll(t, path)
	if !rep.Complete || rep.Records != 0 || rep.Base != 0 || rep.LastLSN != 0 || len(got) != 0 {
		t.Fatalf("empty log: rep=%+v got=%d", rep, len(got))
	}
}

// TestWALTruncationSweep cuts the log at every byte offset: replay must
// never error, must salvage exactly the records whose bytes fully precede
// the cut, and must report the damage.
func TestWALTruncationSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	rs := genWalRecs(120)
	buildWAL(t, path, 0, rs)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Record boundaries: walk the framing (offset after header, then each
	// record is 8 bytes of framing plus its payload). boundaries[i] is the
	// end offset of record i (record 0 is the checkpoint).
	var boundaries []int64
	off := int64(headerSize)
	for off < int64(len(blob)) {
		l := binary.LittleEndian.Uint32(blob[off:])
		off += 8 + int64(l)
		boundaries = append(boundaries, off)
	}
	for cut := 0; cut <= len(blob); cut++ {
		var got []walRec
		rep, err := ReplayWAL(bytes.NewReader(blob[:cut]), func(op WalOp, key []byte, tid uint64) error {
			got = append(got, walRec{op, append([]byte(nil), key...), tid})
			return nil
		})
		if cut < headerSize {
			if err == nil && rep.Damage == nil {
				t.Fatalf("cut=%d: headerless prefix reported clean", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut=%d: replay errored: %v", cut, err)
		}
		// Expected: all records whose end offset ≤ cut.
		wantValid := int64(headerSize)
		wantData := 0
		for i, b := range boundaries {
			if b <= int64(cut) {
				wantValid = b
				if i > 0 { // record 0 is the checkpoint
					wantData = i
				}
			}
		}
		if rep.ValidSize != wantValid {
			t.Fatalf("cut=%d: ValidSize %d, want %d", cut, rep.ValidSize, wantValid)
		}
		if int(rep.Records) != wantData || len(got) != wantData {
			t.Fatalf("cut=%d: %d records salvaged, want %d", cut, rep.Records, wantData)
		}
		if !sameRecs(got, rs[:wantData]) {
			t.Fatalf("cut=%d: salvaged records diverge", cut)
		}
		// A cut landing exactly on a record boundary is indistinguishable
		// from a log that simply ends there (a WAL has no trailer), so it
		// reads as complete; everywhere else the torn tail must be damage.
		if int64(cut) == wantValid {
			if !rep.Complete || rep.Damage != nil {
				t.Fatalf("cut=%d: boundary cut reported damaged: %+v", cut, rep)
			}
		} else if rep.Complete || rep.Damage == nil {
			t.Fatalf("cut=%d: truncated log reported complete", cut)
		}
	}
}

// TestWALBitFlipSweep flips one byte at every offset: replay must never
// panic, must detect the damage, and must deliver only a true record
// prefix.
func TestWALBitFlipSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	rs := genWalRecs(80)
	buildWAL(t, path, 0, rs)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := make([]byte, len(blob))
	for off := 0; off < len(blob); off++ {
		copy(mut, blob)
		mut[off] ^= 0x01
		var got []walRec
		rep, _ := ReplayWAL(bytes.NewReader(mut), func(op WalOp, key []byte, tid uint64) error {
			got = append(got, walRec{op, append([]byte(nil), key...), tid})
			return nil
		})
		if rep.Complete || rep.Damage == nil {
			t.Fatalf("off=%d: flipped log reported complete", off)
		}
		if len(got) > len(rs) {
			t.Fatalf("off=%d: %d records from an %d-record log", off, len(got), len(rs))
		}
		if !sameRecs(got, rs[:len(got)]) {
			t.Fatalf("off=%d: salvaged records diverge from the original", off)
		}
	}
}

// TestWALGroupCommit hammers one log from many goroutines: every commit
// must return only after its record is durable, the LSNs must come out
// dense, and the fsync count must stay well below the op count (commits
// actually grouped).
func TestWALGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path, 0, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := []byte(fmt.Sprintf("w%d-%d", g, i))
				lsn, err := w.Append(WalUpsert, key, uint64(g*perWorker+i))
				if err != nil {
					t.Error(err)
					return
				}
				if err := w.Commit(lsn); err != nil {
					t.Error(err)
					return
				}
				if w.DurableLSN() < lsn {
					t.Errorf("commit returned with durable %d < lsn %d", w.DurableLSN(), lsn)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if w.LastLSN() != workers*perWorker {
		t.Fatalf("last LSN %d, want %d", w.LastLSN(), workers*perWorker)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, rep := replayAll(t, path)
	if !rep.Complete || int(rep.Records) != workers*perWorker {
		t.Fatalf("replay: rep=%+v", rep)
	}
	seen := make(map[string]bool, len(got))
	for _, r := range got {
		seen[string(r.key)] = true
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("replayed %d distinct records, want %d", len(seen), workers*perWorker)
	}
}

func TestWALRotate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := w.Append(WalUpsert, []byte(fmt.Sprintf("a%02d", i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// Rotation below the last LSN must refuse without poisoning.
	if err := w.Rotate(10); err == nil {
		t.Fatal("rotate below last LSN succeeded")
	}
	if err := w.Err(); err != nil {
		t.Fatalf("refused rotate poisoned the log: %v", err)
	}
	if err := w.Rotate(w.LastLSN()); err != nil {
		t.Fatal(err)
	}
	if w.Base() != 50 || w.DurableLSN() != 50 {
		t.Fatalf("after rotate: base %d durable %d", w.Base(), w.DurableLSN())
	}
	for i := 0; i < 20; i++ {
		if _, err := w.Append(WalDelete, []byte(fmt.Sprintf("a%02d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, rep := replayAll(t, path)
	if rep.Base != 50 || rep.LastLSN != 70 || rep.Records != 20 {
		t.Fatalf("post-rotate replay: %+v", rep)
	}
	for i, r := range got {
		if r.op != WalDelete || string(r.key) != fmt.Sprintf("a%02d", i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

// TestWALRotateCompletesPendingCommits: records buffered but uncommitted at
// rotation are covered by the checkpoint snapshot, so the rotation itself
// must satisfy their pending commits.
func TestWALRotateCompletesPendingCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := w.Append(WalUpsert, []byte("k"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(lsn); err != nil {
		t.Fatal(err)
	}
	// The buffered record was discarded by the rotation; commit must be
	// satisfied immediately by the checkpoint coverage.
	if err := w.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep := replayAll(t, path)
	if rep.Base != 1 || rep.Records != 0 || !rep.Complete {
		t.Fatalf("rotated log: %+v", rep)
	}
}

// TestWALContinue appends garbage to a clean log, replays (detecting the
// torn tail), resumes with ContinueWAL (truncating it) and appends more:
// the final log must replay clean and LSN-continuous.
func TestWALContinue(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	rs := genWalRecs(30)
	buildWAL(t, path, 0, rs)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xDE, 0xAD, 0xBE}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, rep := replayAll(t, path)
	if rep.Complete || rep.Damage == nil || int(rep.Records) != len(rs) {
		t.Fatalf("torn log: rep=%+v", rep)
	}
	if !sameRecs(got, rs) {
		t.Fatal("torn tail corrupted the valid prefix")
	}
	w, err := ContinueWAL(path, rep, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.LastLSN() != rep.LastLSN {
		t.Fatalf("resumed at LSN %d, want %d", w.LastLSN(), rep.LastLSN)
	}
	if _, err := w.Append(WalUpsert, []byte("after"), 99); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, rep = replayAll(t, path)
	if !rep.Complete || rep.Damage != nil {
		t.Fatalf("resumed log still damaged: %+v", rep)
	}
	if len(got) != len(rs)+1 || string(got[len(got)-1].key) != "after" {
		t.Fatalf("resumed log has %d records", len(got))
	}
}

// TestWALContinueUnsalvageable: a log whose header did not survive cannot
// be continued — callers recreate it.
func TestWALContinueUnsalvageable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, []byte("notawal"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, _ := ReplayWALFile(path, func(WalOp, []byte, uint64) error { return nil })
	if rep.ValidSize != 0 {
		t.Fatalf("ValidSize %d for headerless file", rep.ValidSize)
	}
	if _, err := ContinueWAL(path, rep, 0); err == nil {
		t.Fatal("ContinueWAL accepted a headerless file")
	}
}

// TestWALStructuralDamage exercises the CRC-clean-but-invalid cases: bad
// op, LSN discontinuity, checkpoint not first, delete with TID, trailing
// bytes.
func TestWALStructuralDamage(t *testing.T) {
	mk := func(recs ...[]byte) []byte {
		blob := walFileProlog(0)
		for _, r := range recs {
			blob = append(blob, r...)
		}
		return blob
	}
	rec := func(op WalOp, lsn uint64, key []byte, tid uint64) []byte {
		return appendWalRecord(nil, op, lsn, key, tid)
	}
	cases := []struct {
		name string
		blob []byte
		want ErrKind
	}{
		{"lsn gap", mk(rec(WalInsert, 2, []byte("k"), 1)), ErrCorrupt},
		{"lsn repeat", mk(rec(WalInsert, 1, []byte("k"), 1), rec(WalInsert, 1, []byte("k"), 1)), ErrCorrupt},
		{"mid checkpoint", mk(rec(WalInsert, 1, []byte("k"), 1), rec(WalCheckpoint, 5, nil, 0)), ErrCorrupt},
		{"delete with tid", mk(rec(WalDelete, 1, []byte("k"), 9)), ErrCorrupt},
		{"unknown op", mk(rec(WalOp(7), 1, []byte("k"), 1)), ErrCorrupt},
	}
	for _, tc := range cases {
		rep, err := ReplayWAL(bytes.NewReader(tc.blob), func(WalOp, []byte, uint64) error { return nil })
		if err != nil {
			t.Fatalf("%s: replay errored: %v", tc.name, err)
		}
		if rep.Damage == nil || rep.Damage.Kind != tc.want {
			t.Fatalf("%s: damage = %v, want kind %v", tc.name, rep.Damage, tc.want)
		}
	}
}

// TestWALEntryFuncError: an fn error aborts the replay and surfaces
// verbatim, with ValidSize excluding the rejected record.
func TestWALEntryFuncError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	rs := genWalRecs(10)
	buildWAL(t, path, 0, rs)
	boom := errors.New("boom")
	n := 0
	rep, err := ReplayWALFile(path, func(WalOp, []byte, uint64) error {
		n++
		if n == 4 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if rep.Records != 3 {
		t.Fatalf("records before abort = %d, want 3", rep.Records)
	}
	// ValidSize must end before the rejected record, so a ContinueWAL cut
	// there drops it.
	w, err := ContinueWAL(path, rep, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep2 := replayAll(t, path)
	if rep2.Records != 3 || !rep2.Complete {
		t.Fatalf("after cut: %+v", rep2)
	}
}

// TestWALInjection injects an I/O fault at each WAL chaos point and checks
// the failure is surfaced, sticky where it must be, and never corrupts the
// durable prefix.
func TestWALInjection(t *testing.T) {
	for _, p := range []chaos.Point{chaos.WalAppend, chaos.WalTornWrite, chaos.WalSync} {
		t.Run(p.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			w, err := CreateWAL(path, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			lsn, err := w.Append(WalUpsert, []byte("pre"), 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Commit(lsn); err != nil {
				t.Fatal(err)
			}
			reg := chaos.New(1)
			reg.On(p, 1, nil)
			reg.Arm()
			lsn, err = w.Append(WalUpsert, []byte("doomed"), 2)
			if err != nil {
				chaos.Disarm()
				t.Fatal(err)
			}
			cerr := w.Commit(lsn)
			chaos.Disarm()
			if !errors.Is(cerr, ErrInjected) {
				t.Fatalf("commit error = %v, want ErrInjected", cerr)
			}
			// Sticky: the log is poisoned for all further use.
			if _, err := w.Append(WalUpsert, []byte("after"), 3); !errors.Is(err, ErrInjected) {
				t.Fatalf("append after poison = %v", err)
			}
			if err := w.Rotate(w.LastLSN()); !errors.Is(err, ErrInjected) {
				t.Fatalf("rotate after poison = %v", err)
			}
			w.Close()
			// The durable prefix must still replay.
			got, rep := replayAll(t, path)
			if rep.Records < 1 || !bytes.Equal(got[0].key, []byte("pre")) {
				t.Fatalf("durable prefix lost: %+v", rep)
			}
		})
	}

	t.Run(chaos.WalRotate.String(), func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "wal.log")
		w, err := CreateWAL(path, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		lsn, err := w.Append(WalUpsert, []byte("pre"), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(lsn); err != nil {
			t.Fatal(err)
		}
		reg := chaos.New(1)
		reg.On(chaos.WalRotate, 1, nil)
		reg.Arm()
		rerr := w.Rotate(w.LastLSN())
		chaos.Disarm()
		if !errors.Is(rerr, ErrInjected) {
			t.Fatalf("rotate error = %v", rerr)
		}
		if _, err := os.Stat(path + ".new"); !os.IsNotExist(err) {
			t.Fatalf("replacement file left behind: %v", err)
		}
		w.Close()
		// The old log survives intact.
		got, rep := replayAll(t, path)
		if !rep.Complete || rep.Records != 1 || !bytes.Equal(got[0].key, []byte("pre")) {
			t.Fatalf("old log damaged by failed rotate: %+v", rep)
		}
	})

	t.Run(chaos.WalTruncate.String(), func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "wal.log")
		buildWAL(t, path, 0, genWalRecs(5))
		f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		f.Write([]byte{0x01, 0x02})
		f.Close()
		rep, _ := ReplayWALFile(path, func(WalOp, []byte, uint64) error { return nil })
		reg := chaos.New(1)
		reg.On(chaos.WalTruncate, 1, nil)
		reg.Arm()
		_, cerr := ContinueWAL(path, rep, 0)
		chaos.Disarm()
		if !errors.Is(cerr, ErrInjected) {
			t.Fatalf("continue error = %v", cerr)
		}
		// Recovery is re-runnable: the same prefix salvages again.
		rep2, _ := ReplayWALFile(path, func(WalOp, []byte, uint64) error { return nil })
		if rep2.Records != rep.Records || rep2.ValidSize != rep.ValidSize {
			t.Fatalf("recovery not re-runnable: %+v vs %+v", rep2, rep)
		}
		w, err := ContinueWAL(path, rep2, 0)
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
	})
}

// TestWALAppendValidation: oversized keys and TIDs are rejected before
// they reach the log.
func TestWALAppendValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(WalInsert, make([]byte, MaxKeyLen+1), 1); err == nil {
		t.Fatal("oversized key accepted")
	}
	if _, err := w.Append(WalInsert, []byte("k"), MaxTID+1); err == nil {
		t.Fatal("oversized TID accepted")
	}
	if err := w.Err(); err != nil {
		t.Fatalf("validation failure poisoned the log: %v", err)
	}
	if _, err := w.Append(WalInsert, []byte("k"), 1); err != nil {
		t.Fatalf("log unusable after rejected appends: %v", err)
	}
}

// TestWALTailer drives the incremental reader against a live log: records
// become visible exactly when the writer's Size() frontier passes them,
// buffered-but-uncommitted appends stay invisible, a byte limit inside a
// record withholds it, and the leading checkpoint record is consumed
// transparently.
func TestWALTailer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	tl, err := OpenWALTailer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	var lastLSN uint64
	drain := func(limit int64) []walRec {
		t.Helper()
		var got []walRec
		for {
			op, key, tid, lsn, ok, err := tl.Next(limit)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return got
			}
			if lastLSN != 0 && lsn != lastLSN+1 {
				t.Fatalf("LSN %d after %d", lsn, lastLSN)
			}
			lastLSN = lsn
			got = append(got, walRec{op, append([]byte(nil), key...), tid})
		}
	}

	// Fresh log: the tailer eats the checkpoint record, yields nothing.
	if got := drain(w.Size()); len(got) != 0 {
		t.Fatalf("fresh log yielded %d records", len(got))
	}
	if tl.Base() != 5 {
		t.Fatalf("Base = %d, want 5", tl.Base())
	}

	rs := genWalRecs(50)
	for _, r := range rs[:30] {
		if _, err := w.Append(r.op, r.key, r.tid); err != nil {
			t.Fatal(err)
		}
	}
	// Appended but uncommitted: the Size() frontier has not moved, so the
	// tailer must see nothing — this is the no-race-with-writers contract.
	if got := drain(w.Size()); len(got) != 0 {
		t.Fatalf("uncommitted appends visible: %d records", len(got))
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := drain(w.Size()); !sameRecs(got, rs[:30]) {
		t.Fatalf("first batch diverged: got %d records", len(got))
	}

	for _, r := range rs[30:] {
		if _, err := w.Append(r.op, r.key, r.tid); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	// One byte short of the frontier: the final record must be withheld.
	part := drain(w.Size() - 1)
	if len(part) >= 20 {
		t.Fatalf("limit inside the last record still returned all %d records", len(part))
	}
	rest := drain(w.Size())
	if !sameRecs(append(part, rest...), rs[30:]) {
		t.Fatalf("second batch diverged: %d + %d records", len(part), len(rest))
	}
	if lastLSN != 5+50 {
		t.Fatalf("last LSN %d, want %d", lastLSN, 5+50)
	}
}

// TestWALPoison pins the contract the sharded checkpoint leans on: Poison
// makes the first error sticky across Append, Commit and Rotate; a nil
// poison and later poisons are no-ops; blocked committers are woken.
func TestWALPoison(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	w.Poison(nil)
	if err := w.Err(); err != nil {
		t.Fatalf("Poison(nil) poisoned the log: %v", err)
	}
	lsn, err := w.Append(WalInsert, []byte("k"), 1)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	w.Poison(boom)
	w.Poison(errors.New("later")) // first error wins
	if got := w.Err(); got != boom {
		t.Fatalf("Err = %v, want the first poison", got)
	}
	if err := w.Commit(lsn); err != boom {
		t.Fatalf("Commit after poison = %v", err)
	}
	if _, err := w.Append(WalInsert, []byte("k2"), 2); err != boom {
		t.Fatalf("Append after poison = %v", err)
	}
	if err := w.Rotate(lsn); err != boom {
		t.Fatalf("Rotate after poison = %v", err)
	}
}
