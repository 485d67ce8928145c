package quant

import "fmt"

// This file holds the sparse backend's entry points. They share the
// dense engine's macro-tile / worker-pool hierarchy (gemm_tiled.go):
// tileM×tileN output macro-tiles over batch slabs, split across
// RunTiles, with K never split — each output element's full reduction
// runs on exactly one worker in the serial kernel's order, so every
// parallel width is bit-exact with the one-worker path and with the
// dense/naive oracles. tileM is a multiple of SparseBlockRows, so
// macro-tile row boundaries never split a skip block.

// Conv2DInt8GemmSparse is the sparse form of Conv2DInt8Gemm — a batch of
// one through Conv2DInt8GemmBatchSparse. Bit-exact with Conv2DInt8Gemm
// and Conv2DInt8 on the unpacked weights at every worker count.
func Conv2DInt8GemmSparse(x *QTensor, sw *SparseWeights, biasQ []int32, stride, pad int, col *[]int8, acc *[]int32) (ConvShape, error) {
	xs := [1]*QTensor{x}
	return Conv2DInt8GemmBatchSparse(xs[:], sw, biasQ, stride, pad, col, acc)
}

// DenseInt8GemmSparse is the sparse form of DenseInt8Gemm — a batch of
// one through DenseInt8GemmBatchSparse. Bit-exact with the dense and
// naive FC kernels on the unpacked weights at every worker count.
func DenseInt8GemmSparse(x *QTensor, sw *SparseWeights, biasQ []int32, acc *[]int32) (int, error) {
	xs := [1]*QTensor{x}
	return DenseInt8GemmBatchSparse(xs[:], sw, biasQ, acc)
}

// Conv2DInt8GemmBatchSparse is the sparse form of Conv2DInt8GemmBatch:
// the same padded slabs and tap tables, walked by the skip-zero kernel
// (sparseConvBlock), so pruned taps are never read. Image b's
// accumulators keep the single-image layout at
// (*acc)[b*sh.AccLen():(b+1)*sh.AccLen()].
func Conv2DInt8GemmBatchSparse(xs []*QTensor, sw *SparseWeights, biasQ []int32, stride, pad int, col *[]int8, acc *[]int32) (ConvShape, error) {
	if err := validateBatch(xs); err != nil {
		return ConvShape{}, err
	}
	hdr := sw.header()
	sh, err := ConvShapeOf(xs[0], &hdr, biasQ, stride, pad)
	if err != nil {
		return sh, err
	}
	if sw.M != sh.OutC || sw.K != sh.Cols() {
		return sh, fmt.Errorf("quant: sparse conv weights %dx%d do not match geometry %dx%d", sw.M, sw.K, sh.OutC, sh.Cols())
	}
	convLower(xs, sh, nil, sw, biasQ, col, acc)
	return sh, nil
}

// DenseInt8GemmBatchSparse is the sparse form of DenseInt8GemmBatch.
// Image b's accumulators are (*acc)[b*out:(b+1)*out].
func DenseInt8GemmBatchSparse(xs []*QTensor, sw *SparseWeights, biasQ []int32, acc *[]int32) (int, error) {
	if err := validateBatch(xs); err != nil {
		return 0, err
	}
	if len(sw.Dims) != 2 {
		return 0, fmt.Errorf("quant: fc weights must be 2-D, got %v", sw.Dims)
	}
	out, in := sw.M, sw.K
	if len(xs[0].Data) != in {
		return 0, fmt.Errorf("quant: fc input %d != %d", len(xs[0].Data), in)
	}
	if len(biasQ) != out {
		return 0, fmt.Errorf("quant: fc bias length %d != %d", len(biasQ), out)
	}
	*acc = growInt32(*acc, len(xs)*out)
	fcLower(*acc, nil, sw, biasQ, xs, in, out)
	return out, nil
}
