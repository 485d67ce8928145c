package quant

import "fmt"

// This file holds the batch entry points — the one lowering per layer
// kind that every conv/FC call goes through (single-image entries are a
// batch of one). Each produces per-image accumulator blocks (image b's
// block is acc[b*blockLen:(b+1)*blockLen]), so the per-image MAC-fault
// injection and the requantize epilogue operate on a batch member
// bit-exactly as they would on a lone image. Accumulation order per
// output element — bias, then taps in (inC, ky, kx) order — matches the
// naive kernels, so every element is bit-exact with Conv2DInt8 /
// DenseInt8 on the same input.

// validateBatch checks that every batch member shares the first image's
// geometry (the compiled kernel admits exactly one input shape).
func validateBatch(xs []*QTensor) error {
	if len(xs) == 0 {
		return fmt.Errorf("quant: empty batch")
	}
	d0 := xs[0].Dims
	for i, x := range xs[1:] {
		if len(x.Dims) != len(d0) {
			return fmt.Errorf("quant: batch image %d rank %d != %d", i+1, len(x.Dims), len(d0))
		}
		for j, d := range x.Dims {
			if d != d0[j] {
				return fmt.Errorf("quant: batch image %d dims %v != %v", i+1, x.Dims, d0)
			}
		}
	}
	return nil
}

// Conv2DInt8GemmBatch is the implicit-GEMM conv lowering (see
// convLower): every image is copied into its zero-bordered slab in
// *col and the tiled walkers read taps from it, so no im2col patch
// matrix is built. Image b's accumulators are
// (*acc)[b*sh.AccLen():(b+1)*sh.AccLen()] in OutC×Pixels layout. Both
// buffers are grown in place and reused across calls.
func Conv2DInt8GemmBatch(xs []*QTensor, w *QTensor, biasQ []int32, stride, pad int, col *[]int8, acc *[]int32) (ConvShape, error) {
	if err := validateBatch(xs); err != nil {
		return ConvShape{}, err
	}
	sh, err := ConvShapeOf(xs[0], w, biasQ, stride, pad)
	if err != nil {
		return sh, err
	}
	convLower(xs, sh, w.Data, nil, biasQ, col, acc)
	return sh, nil
}

// DenseInt8GemmBatch is the batched FC lowering: a multi-RHS GEMM over
// the batch, so each weight row streams once per gemmCols-wide image
// tile instead of once per image. Image b's accumulators are
// (*acc)[b*out:(b+1)*out]; the buffer is grown in place and reused
// across calls. Bit-exact with DenseInt8 applied per image.
func DenseInt8GemmBatch(xs []*QTensor, w *QTensor, biasQ []int32, acc *[]int32) (int, error) {
	if err := validateBatch(xs); err != nil {
		return 0, err
	}
	if len(w.Dims) != 2 {
		return 0, fmt.Errorf("quant: fc weights must be 2-D, got %v", w.Dims)
	}
	out, in := w.Dims[0], w.Dims[1]
	if len(xs[0].Data) != in {
		return 0, fmt.Errorf("quant: fc input %d != %d", len(xs[0].Data), in)
	}
	if len(biasQ) != out {
		return 0, fmt.Errorf("quant: fc bias length %d != %d", len(biasQ), out)
	}
	*acc = growInt32(*acc, len(xs)*out)
	fcLower(*acc, w.Data, nil, biasQ, xs, in, out)
	return out, nil
}

// denseInt8Rows computes output rows [o0,o1) of the batched FC product
// for every image: image b's row o lands at dst[b*out+o]. Weight rows
// are the outer loop so each gemmRows-row group streams the batch once;
// restricting the row range leaves every element's reduction untouched,
// so row-banded parallel calls are bit-exact with one full-range call
// and with DenseInt8 per image.
func denseInt8Rows(dst []int32, wd []int8, bias []int32, xs []*QTensor, in, out, o0, o1 int) {
	n := len(xs)
	o := o0
	for ; o+gemmRows <= o1; o += gemmRows {
		r0 := wd[(o+0)*in : (o+1)*in]
		r1 := wd[(o+1)*in : (o+2)*in]
		r2 := wd[(o+2)*in : (o+3)*in]
		r3 := wd[(o+3)*in : (o+4)*in]
		bi0, bi1, bi2, bi3 := bias[o], bias[o+1], bias[o+2], bias[o+3]
		b := 0
		for ; b+gemmCols <= n; b += gemmCols {
			x0 := xs[b].Data
			x1 := xs[b+1].Data
			s00, s01 := bi0, bi0
			s10, s11 := bi1, bi1
			s20, s21 := bi2, bi2
			s30, s31 := bi3, bi3
			for p, xv := range x0 {
				v0 := int32(xv)
				v1 := int32(x1[p])
				w0 := int32(r0[p])
				w1 := int32(r1[p])
				w2 := int32(r2[p])
				w3 := int32(r3[p])
				s00 += w0 * v0
				s01 += w0 * v1
				s10 += w1 * v0
				s11 += w1 * v1
				s20 += w2 * v0
				s21 += w2 * v1
				s30 += w3 * v0
				s31 += w3 * v1
			}
			dst[(b+0)*out+o], dst[(b+1)*out+o] = s00, s01
			dst[(b+0)*out+o+1], dst[(b+1)*out+o+1] = s10, s11
			dst[(b+0)*out+o+2], dst[(b+1)*out+o+2] = s20, s21
			dst[(b+0)*out+o+3], dst[(b+1)*out+o+3] = s30, s31
		}
		for ; b < n; b++ {
			xd := xs[b].Data
			s0, s1, s2, s3 := bi0, bi1, bi2, bi3
			for p, xv := range xd {
				v := int32(xv)
				s0 += int32(r0[p]) * v
				s1 += int32(r1[p]) * v
				s2 += int32(r2[p]) * v
				s3 += int32(r3[p]) * v
			}
			dst[b*out+o], dst[b*out+o+1], dst[b*out+o+2], dst[b*out+o+3] = s0, s1, s2, s3
		}
	}
	for ; o < o1; o++ {
		row := wd[o*in : (o+1)*in]
		bi := bias[o]
		for b := 0; b < n; b++ {
			xd := xs[b].Data
			sum := bi
			for p, xv := range xd {
				sum += int32(row[p]) * int32(xv)
			}
			dst[b*out+o] = sum
		}
	}
}
