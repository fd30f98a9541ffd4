// Fixture call sites for the batchlen length contracts, shaped like the
// real co-iteration loops in internal/core/kernels.go.
package batchlen

import (
	"accum"
	"hashtable"
)

// probe exercises the LookupBatch width check: flagged only when both
// lengths are compile-time constants and out is shorter than keys.
func probe(s *hashtable.Sealed, keys []uint64) {
	var out [8]int32
	var keys16 [16]uint64

	s.LookupBatch(keys16[:], out[:])  // want `out holds 8 entries but keys holds 16`
	s.LookupBatch(keys16[:8], out[:]) // equal widths: fine
	s.LookupBatch(keys16[:4], out[:]) // out longer than keys: fine
	s.LookupBatch(keys, out[:])       // dynamic keys length: unprovable, silent

	s.LookupBatch([]uint64{1, 2, 3}, make([]int32, 2)) // want `out holds 2 entries but keys holds 3`
	s.LookupBatch([]uint64{1, 2, 3}, make([]int32, 4))

	// The real kernel shape: chunked slicings with runtime bounds are
	// beyond local proof and must stay silent.
	outDyn := make([]int32, len(keys))
	for base := 0; base < len(keys); base += hashtable.LookupBatchMax {
		n := len(keys) - base
		if n > hashtable.LookupBatchMax {
			n = hashtable.LookupBatchMax
		}
		s.LookupBatch(keys[base:base+n], outDyn[:n])
	}
}

// scatter exercises the whole-array heuristic on ScatterMatches: the fixed
// scratch array must be passed as the gathered prefix.
func scatter(d *accum.Dense, a accum.Accumulator, nm int) {
	var ms [16]accum.Match

	d.ScatterMatches(ms[:])    // want `entire 16-entry scratch array`
	d.ScatterMatches(ms[0:16]) // want `entire 16-entry scratch array`
	a.ScatterMatches(ms[:])    // want `entire 16-entry scratch array`
	d.ScatterMatches(ms[:nm])  // the gathered prefix: fine
	d.ScatterMatches(ms[2:])   // a proper sub-slice, not the whole array: fine
	d.ScatterMatches(ms[:8])   // constant prefix below the array length: fine

	// A deliberate whole-array pass (every slot written each chunk) is
	// suppressed with a rationale, like any other finding.
	d.ScatterMatches(ms[:]) //fastcc:allow batchlen -- fixture: all 16 slots are rewritten before every scatter
}

// unrelated names must not trip the name-based matching.
type local struct{}

func (local) ScatterMatches(ms []accum.Match) {}

func decoys(l local, ms []accum.Match) {
	l.ScatterMatches(ms[:]) // method of this package, not accum: silent
}
