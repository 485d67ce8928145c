package quant

import "sync"

// This file is the addressing half of the implicit-GEMM convolution.
// Instead of unfolding every receptive field into an im2col patch
// matrix, each conv entry copies its image into a zero-bordered slab
// (InC × (InH+2·Pad) × (InW+2·Pad)) and the GEMM walkers read tap
// p=(ic,ky,kx) of output pixel j straight from it at base[j] + off[p].
// The padding border supplies the zeros im2col wrote for out-of-range
// taps, so every walker reads exactly the value Im2colInt8 would have
// placed at patch row j, column p — which is what keeps the lowering
// bit-exact with the naive kernel.

// taps is the immutable addressing table of one ConvShape.
type taps struct {
	sh ConvShape
	// off[p] is tap p's offset from its pixel's origin in the padded
	// slab, p in (ic, ky, kx) order — the naive kernel's reduction order.
	off []int32
	// base[j] is output pixel j's origin (its (0,0,0) tap) in the slab.
	base []int32
	// ph×pw is one channel plane of the slab; padLen the whole slab.
	ph, pw, padLen int
}

// tapCache memoizes taps per shape: tables are built on a shape's first
// conv and only read afterwards, so the steady state allocates nothing.
var tapCache struct {
	sync.Mutex
	m map[ConvShape]*taps
}

// tapsFor returns the cached addressing table of sh.
func tapsFor(sh ConvShape) *taps {
	tapCache.Lock()
	defer tapCache.Unlock()
	t := tapCache.m[sh]
	if t == nil {
		if tapCache.m == nil {
			tapCache.m = make(map[ConvShape]*taps)
		}
		t = newTaps(sh)
		tapCache.m[sh] = t
	}
	return t
}

// newTaps builds sh's table. The plane is InH+2·Pad × InW+2·Pad, grown
// at the bottom/right when the kernel overhangs it: ConvShapeOf's
// truncating division admits one output row (column) even when K
// exceeds the padded extent by less than the stride, and the naive
// kernel reads those overhanging taps as zeros.
func newTaps(sh ConvShape) *taps {
	ph := max(sh.InH+2*sh.Pad, (sh.OutH-1)*sh.Stride+sh.K)
	pw := max(sh.InW+2*sh.Pad, (sh.OutW-1)*sh.Stride+sh.K)
	t := &taps{
		sh:     sh,
		off:    make([]int32, 0, sh.Cols()),
		base:   make([]int32, 0, sh.Pixels()),
		ph:     ph,
		pw:     pw,
		padLen: sh.InC * ph * pw,
	}
	for ic := 0; ic < sh.InC; ic++ {
		for ky := 0; ky < sh.K; ky++ {
			for kx := 0; kx < sh.K; kx++ {
				t.off = append(t.off, int32((ic*ph+ky)*pw+kx))
			}
		}
	}
	for oy := 0; oy < sh.OutH; oy++ {
		for ox := 0; ox < sh.OutW; ox++ {
			t.base = append(t.base, int32(oy*sh.Stride*pw+ox*sh.Stride))
		}
	}
	return t
}

// pad copies the CHW image src into its zero-bordered slab dst
// (t.padLen bytes), one row-length copy per input row.
func (t *taps) pad(dst, src []int8) {
	sh := t.sh
	if t.ph == sh.InH && t.pw == sh.InW {
		copy(dst, src)
		return
	}
	clear(dst)
	for c := 0; c < sh.InC; c++ {
		for y := 0; y < sh.InH; y++ {
			row := (c*sh.InH + y) * sh.InW
			copy(dst[(c*t.ph+y+sh.Pad)*t.pw+sh.Pad:], src[row:row+sh.InW])
		}
	}
}

// gather packs the taps of output pixels [j, j+cols) of the padded
// slab xb into panel, pixel c's K taps contiguous at panel[c*K:] — the
// patch-major B panel the dense register kernel streams.
func (t *taps) gather(panel, xb []int8, j, cols int) {
	offs := t.off
	k := len(offs)
	for c, base := range t.base[j : j+cols] {
		src := xb[base:]
		dst := panel[c*k : (c+1)*k]
		for p, off := range offs {
			dst[p] = src[off]
		}
	}
}
