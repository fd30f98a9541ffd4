// Devirtualization fixtures: pool-obtained memory reaching an escaping
// callee only through an indirect call — a dispatch table read, an
// interface method bounded by CHA, a func value that launches a goroutine.
// Before the call-graph refinement every one of these sites was opaque and
// the escapes below were invisible; now the may-call set contributes every
// member, and an argument escaping through ANY possible callee is a
// finding. The last case keeps the other half of the contract honest: a
// func value from outside the points-to model stays opaque and silent.
package devirtx

import "mempool"

var sp mempool.SlicePool

// --- dispatch-table shape ---

type kernel func(b []float64)

var kept [][]float64

// kStash escapes its parameter; kSum only reads it. The table holds both,
// so a dispatch through it may escape.
func kStash(b []float64) { kept = append(kept, b) }

func kSum(b []float64) {
	var t float64
	for _, v := range b {
		t += v
	}
	_ = t
}

var dispatchTable = [2]kernel{kStash, kSum}

func tableDispatch(which int) {
	buf := sp.Get(64)
	dispatchTable[which](buf) // want `pool-obtained memory passed to kStash escapes via parameter b \(stored in a package variable\)`
	sp.Put(buf)
}

// --- interface shape: CHA bounds the call to two impls with differing
// pool behavior ---

type consumer interface{ Consume(b []float64) }

type keeper struct{ kept [][]float64 }

func (k *keeper) Consume(b []float64) { k.kept = append(k.kept, b) }

type summer struct{ total float64 }

func (s *summer) Consume(b []float64) {
	for _, v := range b {
		s.total += v
	}
}

var _ = []consumer{&keeper{}, &summer{}}

func viaInterface(c consumer) {
	buf := sp.Get(64)
	c.Consume(buf) // want `pool-obtained memory passed to Consume escapes via parameter b \(stored in field kept\)`
	sp.Put(buf)
}

// The clean implementation called directly stays clean: the finding above
// is about the may-call set, not the method name.
func onlySummer(s *summer) {
	buf := sp.Get(64)
	s.Consume(buf)
	sp.Put(buf)
}

// --- func value whose callee hands the buffer to a goroutine ---

func launchOver(b []float64) {
	go kSum(b)
}

func viaFuncValue() {
	buf := sp.Get(64)
	run := launchOver
	run(buf) // want `pool-obtained memory passed to launchOver escapes via parameter b \(passed to a goroutine\)`
	sp.Put(buf)
}

// --- a func value from outside the points-to model stays opaque ---

var hookCh = make(chan func([]float64), 1)

// viaChannel calls a function received over a channel: no constraint in the
// points-to system models the receive, so the site stays opaque and out of
// poolescapex's scope by design — the -stats opaque count is where this
// soundness gap is tracked, not a speculative finding here.
func viaChannel() {
	buf := sp.Get(64)
	fn := <-hookCh
	fn(buf)
	sp.Put(buf)
}
