package quant

import "fmt"

// ConvShape is the resolved geometry of one int8 convolution: the GEMM
// lowering maps the weight tensor to an OutC × Cols matrix and the
// receptive fields to a logical Cols × Pixels patch matrix, so the
// convolution becomes a single (OutC × Cols)·(Cols × Pixels) product.
// The serving path never materializes the patch matrix (see taps.go).
type ConvShape struct {
	InC, InH, InW    int
	OutC, OutH, OutW int
	K, Stride, Pad   int
}

// Cols is the GEMM reduction depth: one column row per (inC, ky, kx).
func (s ConvShape) Cols() int { return s.InC * s.K * s.K }

// Pixels is the GEMM output width: one column per output pixel.
func (s ConvShape) Pixels() int { return s.OutH * s.OutW }

// AccLen is the int32 accumulator count of the lowered convolution.
func (s ConvShape) AccLen() int { return s.OutC * s.Pixels() }

// ConvShapeOf validates a conv (x: CHW, w: OIHW) and resolves its
// geometry. The checks mirror Conv2DInt8 so the GEMM path rejects exactly
// the inputs the reference kernel rejects.
func ConvShapeOf(x, w *QTensor, biasQ []int32, stride, pad int) (ConvShape, error) {
	if len(x.Dims) != 3 {
		return ConvShape{}, fmt.Errorf("quant: conv input must be CHW, got %v", x.Dims)
	}
	if len(w.Dims) != 4 {
		return ConvShape{}, fmt.Errorf("quant: conv weights must be OIHW, got %v", w.Dims)
	}
	sh := ConvShape{
		InC: x.Dims[0], InH: x.Dims[1], InW: x.Dims[2],
		OutC: w.Dims[0], K: w.Dims[2], Stride: stride, Pad: pad,
	}
	if w.Dims[1] != sh.InC {
		return ConvShape{}, fmt.Errorf("quant: conv channels %d != %d", w.Dims[1], sh.InC)
	}
	if len(biasQ) != sh.OutC {
		return ConvShape{}, fmt.Errorf("quant: conv bias length %d != %d", len(biasQ), sh.OutC)
	}
	if stride <= 0 {
		return ConvShape{}, fmt.Errorf("quant: conv stride must be positive")
	}
	sh.OutH = (sh.InH+2*pad-sh.K)/stride + 1
	sh.OutW = (sh.InW+2*pad-sh.K)/stride + 1
	if sh.OutH <= 0 || sh.OutW <= 0 {
		return ConvShape{}, fmt.Errorf("quant: conv output collapses")
	}
	return sh, nil
}

// Im2colInt8 unfolds x into the patch-major Pixels × Cols matrix: row p
// (one per output pixel) holds that pixel's receptive field in
// (ic, ky, kx) order — the reduction order of the naive kernel — with
// zeros where a tap falls in the padding. It is off the serving path:
// the implicit GEMM reads the same elements through its tap tables,
// and this unfold is the oracle they are tested against.
//
// The unfold is interior/border split: output pixels whose receptive
// field is fully in-bounds take the steady-state path — straight
// K-element copies with no bounds checks — and only the border pixels
// pay per-tap range tests.
func Im2colInt8(x *QTensor, sh ConvShape, col []int8) {
	xd := x.Data
	k, stride, pad := sh.K, sh.Stride, sh.Pad
	cols := sh.Cols()
	// Interior output range: every tap of the receptive field in-bounds.
	oyLo, oyHi := interiorRange(sh.OutH, sh.InH, k, stride, pad)
	oxLo, oxHi := interiorRange(sh.OutW, sh.InW, k, stride, pad)
	for oy := 0; oy < sh.OutH; oy++ {
		iy0 := oy*stride - pad
		rowBase := oy * sh.OutW * cols
		interiorRow := oy >= oyLo && oy < oyHi
		for ox := 0; ox < sh.OutW; ox++ {
			ix0 := ox*stride - pad
			dst := col[rowBase+ox*cols : rowBase+(ox+1)*cols]
			if interiorRow && ox >= oxLo && ox < oxHi {
				// Steady state: contiguous K-wide copies per kernel row.
				d := 0
				for ic := 0; ic < sh.InC; ic++ {
					src := xd[(ic*sh.InH+iy0)*sh.InW+ix0:]
					for ky := 0; ky < k; ky++ {
						copy(dst[d:d+k], src[ky*sh.InW:])
						d += k
					}
				}
				continue
			}
			// Border: per-tap range tests with zero fill.
			d := 0
			for ic := 0; ic < sh.InC; ic++ {
				xBase := ic * sh.InH * sh.InW
				for ky := 0; ky < k; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= sh.InH {
						for kx := 0; kx < k; kx++ {
							dst[d] = 0
							d++
						}
						continue
					}
					rowX := xBase + iy*sh.InW
					for kx := 0; kx < k; kx++ {
						ix := ix0 + kx
						if ix < 0 || ix >= sh.InW {
							dst[d] = 0
						} else {
							dst[d] = xd[rowX+ix]
						}
						d++
					}
				}
			}
		}
	}
}

// interiorRange returns the [lo, hi) output range whose receptive field
// [o*stride-pad, o*stride-pad+k) lies fully inside [0, in).
func interiorRange(out, in, k, stride, pad int) (lo, hi int) {
	lo = 0
	if pad > 0 {
		lo = (pad + stride - 1) / stride
	}
	hi = out
	if limit := in + pad - k; limit >= 0 {
		if h := limit/stride + 1; h < hi {
			hi = h
		}
	} else {
		hi = 0
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}
