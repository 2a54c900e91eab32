package persist_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"

	hot "github.com/hotindex/hot"
	"github.com/hotindex/hot/internal/chaos"
	"github.com/hotindex/hot/internal/persist"
	"github.com/hotindex/hot/internal/tidstore"
)

// The crash matrix: for every snapshot I/O injection point, a subprocess
// writer is killed (os.Exit mid-syscall-sequence, no deferred cleanup)
// while overwriting a previous snapshot, and the parent must recover: the
// snapshot path must load to either the previous or the new image — never
// a mix, never an error — and the recovered tree must pass Verify() and
// match a sorted-key oracle. Leftover temp files must recover to a clean
// prefix of the new image.

const (
	crashEnvPoint = "HOT_SNAP_CRASH_POINT"
	crashEnvDir   = "HOT_SNAP_CRASH_DIR"
	crashEnvCodec = "HOT_SNAP_CRASH_CODEC"
	crashSeed     = 42
	crashPrevKeys = 2000
	crashNextKeys = 5000
	crashExitCode = 3
)

// crashKeys deterministically generates the full key set; both parent and
// child derive identical stores so TIDs agree across processes.
func crashKeys() (*tidstore.Store, [][]byte) {
	rng := rand.New(rand.NewSource(crashSeed))
	seen := make(map[uint64]bool, crashNextKeys)
	s := &tidstore.Store{}
	keys := make([][]byte, 0, crashNextKeys)
	for len(keys) < crashNextKeys {
		v := rng.Uint64() >> 1
		if seen[v] {
			continue
		}
		seen[v] = true
		k := make([]byte, 8)
		binary.BigEndian.PutUint64(k, v)
		s.Add(k)
		keys = append(keys, k)
	}
	return s, keys
}

// loadTreeFile loads the tree snapshot at path into a fresh tree, strictly
// or salvaging.
func loadTreeFile(path string, loader hot.Loader, salvage bool) (*hot.Tree, hot.RecoveryReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, hot.RecoveryReport{}, err
	}
	defer f.Close()
	tr := hot.New(loader)
	rep, err := hot.Load(f, tr, salvage)
	return tr, rep, err
}

func buildTree(s *tidstore.Store, keys [][]byte, n int) *hot.Tree {
	tr := hot.New(s.Key)
	for i := 0; i < n; i++ {
		tr.Insert(keys[i], uint64(i))
	}
	return tr
}

func sortedOracle(keys [][]byte, n int) [][]byte {
	o := make([][]byte, n)
	copy(o, keys[:n])
	sort.Slice(o, func(i, j int) bool { return bytes.Compare(o[i], o[j]) < 0 })
	return o
}

// crashChild runs in the subprocess: it arms a process-exit action at the
// named injection point and attempts to snapshot the full tree over the
// previous snapshot. The armed point always lies on the save path, so the
// process dies inside SaveFile; reaching the end means the point never
// fired, reported to the parent as a distinct exit code.
func crashChild(pointName, dir, codecName string) {
	var point chaos.Point
	found := false
	for _, p := range chaos.Points() {
		if p.String() == pointName {
			point, found = p, true
			break
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "unknown injection point %q\n", pointName)
		os.Exit(4)
	}
	codec, err := hot.ParseSnapshotCodec(codecName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(4)
	}
	store, keys := crashKeys()
	tr := buildTree(store, keys, crashNextKeys)
	tr.SetSnapshotCodec(codec)
	reg := chaos.New(crashSeed)
	reg.On(point, 1, chaos.Exit(crashExitCode))
	reg.Arm()
	err = hot.SaveFile(filepath.Join(dir, "snap.hot"), tr)
	chaos.Disarm()
	fmt.Fprintf(os.Stderr, "point %s never fired (save err: %v)\n", pointName, err)
	os.Exit(5)
}

func TestCrashMatrix(t *testing.T) {
	if p := os.Getenv(crashEnvPoint); p != "" {
		crashChild(p, os.Getenv(crashEnvDir), os.Getenv(crashEnvCodec))
	}
	store, keys := crashKeys()
	points := []chaos.Point{
		chaos.SnapWriteHeader,
		chaos.SnapWriteBlock,
		chaos.SnapTornWrite,
		chaos.SnapSync,
		chaos.SnapRename,
		chaos.SnapDirSync,
	}
	// Sweep both block codecs: the previous snapshot stays raw, so the
	// packed sweep also covers a packed writer replacing a raw image.
	codecs := []hot.SnapshotCodec{hot.SnapshotCodecRaw, hot.SnapshotCodecPacked}
	for _, point := range points {
		for _, codec := range codecs {
			point, codec := point, codec
			t.Run(point.String()+"/"+codec.String(), func(t *testing.T) {
				runCrashPoint(t, store, keys, point, codec)
			})
		}
	}
}

func runCrashPoint(t *testing.T, store *tidstore.Store, keys [][]byte, point chaos.Point, codec hot.SnapshotCodec) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.hot")
	// The previous snapshot the crashed writer was replacing.
	if err := hot.SaveFile(path, buildTree(store, keys, crashPrevKeys)); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashMatrix$")
	cmd.Env = append(os.Environ(),
		crashEnvPoint+"="+point.String(), crashEnvDir+"="+dir,
		crashEnvCodec+"="+codec.String())
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != crashExitCode {
		t.Fatalf("writer did not crash at the point (err=%v):\n%s", err, out)
	}

	// Recovery: strict load first; if that fails, salvage. One of
	// the two must restore a verifiable tree.
	tr, rep, err := loadTreeFile(path, store.Key, false)
	if err != nil {
		tr, rep, err = loadTreeFile(path, store.Key, true)
		if err != nil {
			t.Fatalf("snapshot unrecoverable after crash: %v", err)
		}
		t.Logf("strict load failed, salvaged %d entries (damage: %v)", rep.Entries, rep.Damage)
	}
	if err := tr.Verify(); err != nil {
		t.Fatalf("recovered tree fails Verify: %v", err)
	}

	// The atomic protocol admits exactly two states for the main
	// path: the previous image or the complete new one.
	var wantN int
	switch tr.Len() {
	case crashPrevKeys:
		wantN = crashPrevKeys
	case crashNextKeys:
		wantN = crashNextKeys
	default:
		t.Fatalf("recovered %d entries, want %d or %d", tr.Len(), crashPrevKeys, crashNextKeys)
	}
	oracle := sortedOracle(keys, wantN)
	i := 0
	tr.Scan(nil, wantN, func(tid hot.TID) bool {
		if i >= len(oracle) || !bytes.Equal(store.Key(tid, nil), oracle[i]) {
			t.Fatalf("entry %d diverges from the sorted oracle", i)
		}
		i++
		return true
	})
	if i != wantN {
		t.Fatalf("scan enumerated %d of %d oracle keys", i, wantN)
	}

	// A crash before the rename may leave the torn temp file
	// behind; salvage must hand back a clean prefix of the new
	// image without ever erroring or fabricating entries.
	tmp := path + ".tmp"
	if _, statErr := os.Stat(tmp); statErr == nil {
		newOracle := sortedOracle(keys, crashNextKeys)
		j := 0
		f, err := os.Open(tmp)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rep, err := persist.Recover(f, persist.KindTree, func(k []byte, tid uint64) error {
			if j >= len(newOracle) || !bytes.Equal(k, newOracle[j]) {
				t.Fatalf("torn temp entry %d diverges from the new image", j)
			}
			j++
			return nil
		})
		if err != nil {
			t.Fatalf("torn temp file salvage errored: %v", err)
		}
		t.Logf("torn temp file: salvaged %d/%d entries, complete=%v",
			rep.Entries, crashNextKeys, rep.Complete)
	}
}
