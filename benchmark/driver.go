package main

import (
	hot "github.com/hotindex/hot"
)

// driver is the op surface a workload is measured through: the embedded
// implementation calls a hot.Index in process, the served one speaks to a
// hot-server over loopback. Every method runs one slice of ops, checks
// every answer against the oracle, and returns how many were wrong.
type driver interface {
	insert(s *slice) int   // Insert / ADD of keys s.idx, which must be absent
	get(s *slice) int      // Lookup / GET
	getBatch(s *slice) int // LookupBatch / BATCH in groups of batchSize
	scan(s *slice) int     // scanLen entries from each start key
	mixed(s *slice) int    // Lookup, or Upsert where writeBit is set
	put(s *slice) int      // Upsert / SET+FLUSH of loaded keys
}

// done closes the per-op timing of op j, begun at t0.
func (s *slice) done(j int, name uint8, t0 int64) {
	now := nanotime()
	if s.tr != nil {
		s.tr.call(name, t0, now)
	}
	if s.lat != nil {
		s.lat[j] = now - t0
	}
}

// timed reports whether the driver must clock each op, and interns the
// span name when it must trace.
func (s *slice) timed(name string) (bool, uint8) {
	if s.tr != nil {
		return true, s.tr.nameID(name)
	}
	return s.lat != nil, 0
}

// embedded drives any hot.Index in process.
type embedded struct {
	idx  hot.Index
	ks   *keyset
	keys [][]byte  // batch scratch
	tids []hot.TID // batch scratch
}

func newEmbedded(idx hot.Index, ks *keyset) *embedded {
	return &embedded{idx: idx, ks: ks, keys: make([][]byte, batchSize), tids: make([]hot.TID, batchSize)}
}

func (d *embedded) insert(s *slice) int {
	bad := 0
	timed, name := s.timed("hot.Insert")
	var t0 int64
	for j, i := range s.idx {
		if timed {
			t0 = nanotime()
		}
		ok := d.idx.Insert(d.ks.keys[i], hot.TID(i))
		if timed {
			s.done(j, name, t0)
		}
		if !ok {
			bad++
		}
	}
	return bad
}

func (d *embedded) get(s *slice) int {
	bad := 0
	timed, name := s.timed("hot.Lookup")
	var t0 int64
	for j, i := range s.idx {
		if timed {
			t0 = nanotime()
		}
		tid, ok := d.idx.Lookup(d.ks.keys[i])
		if timed {
			s.done(j, name, t0)
		}
		if !ok || tid != hot.TID(i) {
			bad++
		}
	}
	return bad
}

func (d *embedded) getBatch(s *slice) int {
	bad := 0
	timed, name := s.timed("hot.LookupBatch")
	var t0 int64
	for lo := 0; lo < len(s.idx); lo += batchSize {
		group := s.idx[lo:min(lo+batchSize, len(s.idx))]
		for j, i := range group {
			d.keys[j] = d.ks.keys[i]
		}
		if timed {
			t0 = nanotime()
		}
		found := d.idx.LookupBatch(d.keys[:len(group)], d.tids)
		if timed {
			s.done(lo, name, t0)
		}
		for j, i := range group {
			if !found[j] || d.tids[j] != hot.TID(i) {
				bad++
			}
		}
	}
	return bad
}

// wantScan is the one right answer to a scan of scanLen from keys[i].
func (ks *keyset) wantScan(i uint32) []uint32 {
	r := int(ks.rank[i])
	return ks.order[r:min(r+scanLen, len(ks.order))]
}

func (d *embedded) scan(s *slice) int {
	bad := 0
	timed, name := s.timed("hot.Scan")
	var t0 int64
	for j, i := range s.idx {
		want := d.ks.wantScan(i)
		k, wrong := 0, false
		if timed {
			t0 = nanotime()
		}
		n := d.idx.Scan(d.ks.keys[i], scanLen, func(tid hot.TID) bool {
			if k >= len(want) || tid != hot.TID(want[k]) {
				wrong = true
			}
			k++
			return true
		})
		if timed {
			s.done(j, name, t0)
		}
		if wrong || n != len(want) {
			bad++
		}
	}
	return bad
}

func (d *embedded) upsert(i uint32) bool {
	old, replaced := d.idx.Upsert(d.ks.keys[i], hot.TID(i))
	return replaced && old == hot.TID(i)
}

func (d *embedded) mixed(s *slice) int {
	bad := 0
	timed, rname := s.timed("hot.Lookup")
	_, wname := s.timed("hot.Upsert")
	var t0 int64
	for j, v := range s.idx {
		i := v &^ writeBit
		if timed {
			t0 = nanotime()
		}
		if v&writeBit != 0 {
			ok := d.upsert(i)
			if timed {
				s.done(j, wname, t0)
			}
			if !ok {
				bad++
			}
			continue
		}
		tid, ok := d.idx.Lookup(d.ks.keys[i])
		if timed {
			s.done(j, rname, t0)
		}
		if !ok || tid != hot.TID(i) {
			bad++
		}
	}
	return bad
}

func (d *embedded) put(s *slice) int {
	bad := 0
	timed, name := s.timed("hot.Upsert")
	var t0 int64
	for j, i := range s.idx {
		if timed {
			t0 = nanotime()
		}
		ok := d.upsert(i)
		if timed {
			s.done(j, name, t0)
		}
		if !ok {
			bad++
		}
	}
	return bad
}
