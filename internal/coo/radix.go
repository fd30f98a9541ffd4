package coo

import (
	"math/bits"
	"slices"
)

// Radix de-linearizes indices over a fixed list of extents (row-major:
// mode 0 most significant, the layout LinearizeModes produces) without a
// per-element division. It serves the output pass of the contraction
// engine, where every index is a tile base plus a 32-bit tile-relative
// offset: the base's digits are computed once per run of offsets, and each
// offset's digits come from a precomputed-reciprocal multiply-high
// (Lemire's fastdiv, exact for 32-bit numerators) followed by a digit-wise
// add with carry onto the base's digits.
type Radix struct {
	dims  []uint64
	magic []uint64 // ⌈2^64/d⌉ for 2 <= d <= 2^32; 0 (quotient always 0) above
	size  uint64   // product of dims: the linear extent
}

// NewRadix returns the decoder for dims. It fails when the product of the
// extents is zero or overflows uint64, exactly as LinearSize does.
func NewRadix(dims []uint64) (*Radix, error) {
	size, err := LinearSize(dims)
	if err != nil {
		return nil, err
	}
	x := &Radix{dims: append([]uint64(nil), dims...), magic: make([]uint64, len(dims)), size: size}
	for m, d := range dims {
		if d >= 2 && d <= 1<<32 {
			x.magic[m] = ^uint64(0)/d + 1
		}
	}
	return x, nil
}

// Dims returns the extents the decoder was built for (read-only).
func (x *Radix) Dims() []uint64 { return x.dims }

// decodeBlock is the number of offsets decoded per mode sweep: the
// per-element quotient and carry state lives in stack arrays of this size
// between modes, so each mode's destination array is written sequentially.
const decodeBlock = 256

// DecodeOffsets writes the coordinates of base+offs[k] into dst[m][at+k]
// for every mode m and every k. len(dst) must equal the number of extents,
// and every base+offs[k] must be a valid linear index.
func (x *Radix) DecodeOffsets(dst [][]uint64, at int, base uint64, offs []uint32) {
	var quo, carry [decodeBlock]uint64
	for lo := 0; lo < len(offs); lo += decodeBlock {
		blk := offs[lo:min(lo+decodeBlock, len(offs))]
		qs, cys := quo[:len(blk)], carry[:len(blk)]
		for k, o := range blk {
			qs[k], cys[k] = uint64(o), 0
		}
		b := base
		for m := len(x.dims) - 1; m >= 0; m-- {
			d, mg := x.dims[m], x.magic[m]
			bd := b % d
			b /= d
			cs := dst[m][at+lo : at+lo+len(blk)]
			if d == 1 {
				// Digit always 0; quotient and carry pass through unchanged.
				clear(cs)
				continue
			}
			// Quotient by multiply-high (0 when d > 2^32 exceeds every
			// quotient), remainder by multiply-subtract, then the digit sum
			// with the carry-out taken branch-free from the add's overflow
			// (d > 2^63) and the borrow of sum-d.
			cs, cys := cs[:len(qs)], cys[:len(qs)]
			for k, n := range qs {
				q, _ := bits.Mul64(mg, n)
				c, over := bits.Add64(bd, n-q*d, cys[k])
				_, under := bits.Sub64(c, d, 0)
				cy := over | (1 - under)
				cs[k], qs[k], cys[k] = c-d*cy, q, cy
			}
		}
	}
}

// maxTableSide bounds the tile side a TileDecoder tabulates: a table holds
// one coordinate per mode per offset, and must stay cache-resident for the
// lookups to beat the arithmetic decode.
const maxTableSide = 1 << 12

// TileDecoder decodes runs of tile-relative offsets for one output side.
// When a run is at least as long as its tile is wide, the coordinates of
// every offset of the tile are tabulated once (one arithmetic decode per
// offset) and the run decodes by lookup; the table is kept until a run from
// another tile arrives. Wide tiles and short runs use Radix.DecodeOffsets
// directly. Not safe for concurrent use: one per worker.
type TileDecoder struct {
	x    *Radix
	base uint64     // tile base the table describes
	tab  [][]uint64 // tab[m][o]: mode-m coordinate of base+o; nil until built
	seq  []uint32   // 0, 1, 2, ... the offsets a table is built from
}

// NewTileDecoder returns an empty decoder over x.
func (x *Radix) NewTileDecoder() *TileDecoder { return &TileDecoder{x: x} }

// Decode writes the coordinates of base+offs[k] into dst[m][at+k] for every
// mode m and every k; every offset must be below side, the tile's width,
// and base+offset a valid linear index.
func (d *TileDecoder) Decode(dst [][]uint64, at int, base, side uint64, offs []uint32) {
	// A tile overhanging the extent's end has only size-base offsets.
	width := min(side, d.x.size-base)
	if width > maxTableSide || uint64(len(offs)) < width {
		d.x.DecodeOffsets(dst, at, base, offs)
		return
	}
	if d.tab == nil || d.base != base {
		d.build(base, width)
	}
	for m, t := range d.tab {
		cs := dst[m][at : at+len(offs)]
		for k, o := range offs {
			cs[k] = t[o]
		}
	}
}

// build tabulates the n offsets of the tile at base.
func (d *TileDecoder) build(base, n uint64) {
	for uint64(len(d.seq)) < n {
		d.seq = append(d.seq, uint32(len(d.seq)))
	}
	if d.tab == nil {
		d.tab = make([][]uint64, len(d.x.dims))
	}
	for m := range d.tab {
		d.tab[m] = slices.Grow(d.tab[m][:0], int(n))[:n]
	}
	d.x.DecodeOffsets(d.tab, 0, base, d.seq[:n])
	d.base = base
}
