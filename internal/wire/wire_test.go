package wire

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []struct {
		op   byte
		body []byte
	}{
		{OpGet, []byte("key")},
		{OpFlush, nil},
		{RepValue, AppendUint64(nil, 42)},
		{RepTail, AppendTail(nil, 3, 1, 100, 7, []byte("k"))},
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f.op, f.body); err != nil {
			t.Fatal(err)
		}
	}
	var rbuf []byte
	for i, f := range frames {
		op, body, err := ReadFrame(&buf, rbuf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		rbuf = body
		if op != f.op || !bytes.Equal(body, f.body) {
			t.Fatalf("frame %d: got (%#x, %q), want (%#x, %q)", i, op, body, f.op, f.body)
		}
	}
	if _, _, err := ReadFrame(&buf, rbuf); err != io.EOF {
		t.Fatalf("read past end: %v, want io.EOF", err)
	}
}

func TestFrameLimits(t *testing.T) {
	if err := WriteFrame(io.Discard, OpSet, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("WriteFrame accepted an oversized body")
	}
	// A hostile length prefix must be rejected before allocation.
	hdr := AppendUint32(nil, MaxFrame+1)
	hdr = append(hdr, OpGet)
	if _, _, err := ReadFrame(bytes.NewReader(hdr), nil); err == nil {
		t.Fatal("ReadFrame accepted an oversized length prefix")
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, OpGet, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(full[:cut]), nil)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestBodyCodecs(t *testing.T) {
	key, tid, ok := KeyTID(AppendKeyTID(nil, []byte("abc"), 9))
	if !ok || tid != 9 || string(key) != "abc" {
		t.Fatalf("KeyTID = (%q, %d, %v)", key, tid, ok)
	}
	start, max, ok := Scan(AppendScan(nil, []byte("s"), 17))
	if !ok || max != 17 || string(start) != "s" {
		t.Fatalf("Scan = (%q, %d, %v)", start, max, ok)
	}
	sh, cut, ok := Section(AppendSection(nil, 5, 99))
	if !ok || sh != 5 || cut != 99 {
		t.Fatalf("Section = (%d, %d, %v)", sh, cut, ok)
	}
	if _, _, ok := Section(append(AppendSection(nil, 5, 99), 0)); ok {
		t.Fatal("Section accepted trailing bytes")
	}
	tsh, top, lsn, ttid, tkey, ok := Tail(AppendTail(nil, 2, 3, 50, 8, []byte("xy")))
	if !ok || tsh != 2 || top != 3 || lsn != 50 || ttid != 8 || string(tkey) != "xy" {
		t.Fatalf("Tail = (%d, %d, %d, %d, %q, %v)", tsh, top, lsn, ttid, tkey, ok)
	}
	keys := [][]byte{[]byte("a"), []byte("bb"), []byte("")}
	got, ok := BatchKeys(AppendBatchKeys(nil, keys))
	if !ok || len(got) != 3 || string(got[1]) != "bb" || len(got[2]) != 0 {
		t.Fatalf("BatchKeys = (%q, %v)", got, ok)
	}
	over := AppendUint32(nil, MaxBatch+1)
	if _, ok := BatchKeys(over); ok {
		t.Fatal("BatchKeys accepted a count above MaxBatch")
	}
	if _, ok := BatchKeys(AppendUint32(nil, 2)); ok {
		t.Fatal("BatchKeys accepted a truncated body")
	}
}

func TestResumeCodec(t *testing.T) {
	for _, lsns := range [][]uint64{nil, {0}, {7, 0, 1 << 40, 42}} {
		got, ok := Resume(AppendResume(nil, lsns))
		if !ok || len(got) != len(lsns) {
			t.Fatalf("Resume(%v) = (%v, %v)", lsns, got, ok)
		}
		for i := range lsns {
			if got[i] != lsns[i] {
				t.Fatalf("Resume(%v) = %v", lsns, got)
			}
		}
	}
	if _, ok := Resume(nil); ok {
		t.Fatal("Resume accepted an empty body")
	}
	if _, ok := Resume(AppendUint32(nil, 2)); ok {
		t.Fatal("Resume accepted a truncated body")
	}
	if _, ok := Resume(append(AppendResume(nil, []uint64{1}), 0)); ok {
		t.Fatal("Resume accepted trailing bytes")
	}
	if _, ok := Resume(AppendUint32(nil, MaxResumeShards+1)); ok {
		t.Fatal("Resume accepted a count above MaxResumeShards")
	}
}

// FuzzWireResume throws arbitrary bytes at the resume-handshake decoder:
// it must never panic or over-allocate, and every accepted body must
// round-trip back to identical bytes (the decoder accepts exactly the
// encoder's language, nothing else).
func FuzzWireResume(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendResume(nil, nil))
	f.Add(AppendResume(nil, []uint64{0, 1, 1 << 63}))
	f.Add(AppendUint32(nil, MaxResumeShards+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		lsns, ok := Resume(data)
		if !ok {
			return
		}
		if !bytes.Equal(AppendResume(nil, lsns), data) {
			t.Fatalf("accepted body does not round-trip: %x", data)
		}
	})
}

// TestUnmarshalStatsGrammar pins what a STATS body may be: a flat object
// of distinct identifier keys whose values are booleans or unsigned 64-bit
// integers, with no white space: what MarshalStats writes.
func TestUnmarshalStatsGrammar(t *testing.T) {
	for _, body := range []string{
		`{}`, `{"len":0}`, `{"len":18446744073709551615,"durable":false}`, `{"a":true,"b_2":1}`,
	} {
		if _, err := UnmarshalStats([]byte(body)); err != nil {
			t.Errorf("UnmarshalStats(%s) = %v, want rows", body, err)
		}
	}
	for _, body := range []string{
		``, `[]`, `1`, `{`, `{"len":1`, `{"len":1,}`, `{"len":1}x`, `{"len":-1}`, `{"len":1.5}`, `{"len":01}`,
		`{"len":1180591620717411303424}`, `{"len":"1"}`, `{"len":null}`, `{"len":{}}`, `{"a":1,"a":2}`,
		`{"l\u0065n":1}`, `{len:1}`, `{"len":truex}`, `{"len" :1}`, `{"Len":1}`, `{"":1}`, `{"a":1:2}`, `{,}`,
	} {
		if st, err := UnmarshalStats([]byte(body)); err == nil {
			t.Errorf("UnmarshalStats(%s) = %v, want an error", body, st)
		}
	}
	rows := func(n int) []byte {
		b := []byte{'{'}
		for i := 0; i < n; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = fmt.Appendf(b, `"%c%c":0`, 'a'+i/26, 'a'+i%26)
		}
		return append(b, '}')
	}
	if st, err := UnmarshalStats(rows(MaxStats)); err != nil || len(st) != MaxStats {
		t.Errorf("UnmarshalStats of MaxStats rows = %d rows (err %v)", len(st), err)
	}
	if st, err := UnmarshalStats(rows(MaxStats + 1)); err == nil {
		t.Errorf("UnmarshalStats accepted %d rows, more than MaxStats", len(st))
	}
	st, err := UnmarshalStats([]byte(`{"durable":true,"len":7}`))
	if v, ok := st.Get("len"); err != nil || len(st) != 2 || st[0].Unit != "bool" || st[0].Value != 1 || !ok || v != 7 {
		t.Fatalf("decoded %+v (err %v)", st, err)
	}
	if got := string(MarshalStats(st)); got != `{"durable":true,"len":7}` {
		t.Fatalf("re-encoded as %s", got)
	}
}
