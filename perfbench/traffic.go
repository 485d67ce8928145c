package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"

	"fpgauv/internal/board"
	"fpgauv/internal/dnndk"
	"fpgauv/internal/dpu"
	"fpgauv/internal/tensor"
)

// trafficImages is the size of the seeded image set infer requests draw
// from.
const trafficImages = 64

// Traffic is a workload's generated request stream plus the expected
// answers it is checked against. Everything here is built in set-up,
// outside timing.
type Traffic struct {
	// Bodies are the request bodies; Pick maps a request's sequence
	// number to its body index.
	Bodies [][]byte
	Pick   func(seq int) int
	// Images are the decoded infer images (nil for classify), for the
	// direct scheduler calls of the traced run.
	Images []*tensor.Tensor
	// WantPred is each infer image's class at nominal rails.
	WantPred []int
	// WantAccuracy is a classify pass's accuracy at nominal rails.
	WantAccuracy float64
}

// refDeploy deploys the workload's kernel on a fresh board at nominal
// rails, exactly as every fleet board deploys it. It is the source of
// expected answers and of the kernel the dpu and quant probes run.
func refDeploy(name string) (*dnndk.Deployed, error) {
	cfg := fleetConfig(name)
	brd, err := board.New(board.SampleID(0))
	if err != nil {
		return nil, err
	}
	dcfg := dpu.B4096()
	dcfg.Backend = cfg.SparseBackend
	rt, err := dnndk.NewRuntimeConfig(brd, dcfg, 3)
	if err != nil {
		return nil, err
	}
	dep, err := dnndk.DeployBenchmark(rt, cfg.Benchmark, dnndk.DeployOptions{
		Tiny:        cfg.Tiny,
		Bits:        cfg.Bits,
		Sparsity:    cfg.PruneSparsity,
		PruneBlocks: cfg.PruneSparsity > 0,
		Backend:     cfg.SparseBackend,
		Images:      cfg.Images,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("reference deploy %s: %w", name, err)
	}
	return dep, nil
}

// makeTraffic generates the workload's inputs from seed and computes
// their expected answers on ref.
func makeTraffic(name string, seed int64, ref *dnndk.Deployed) (*Traffic, error) {
	rng := rand.New(rand.NewSource(seed))
	if name == wlClassify {
		// Unpinned classify calls coalesce into shared evaluation passes;
		// the answer to check is the pass accuracy at nominal rails.
		cr, err := ref.Task.Classify(ref.Ds, rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, fmt.Errorf("nominal classify: %w", err)
		}
		return &Traffic{
			Bodies:       [][]byte{[]byte("{}")},
			Pick:         func(int) int { return 0 },
			WantAccuracy: cr.AccuracyPct,
		}, nil
	}
	ds := ref.Bench.MakeDataset(trafficImages, seed)
	res, err := ref.Task.DPU().RunBatchClean(dpu.NewScratch(), ref.Task.Kernel, ds.Inputs)
	if err != nil {
		return nil, fmt.Errorf("reference inference: %w", err)
	}
	t := &Traffic{Images: ds.Inputs, WantPred: make([]int, len(res))}
	for i := range res {
		t.WantPred[i] = res[i].Pred
	}
	for _, img := range ds.Inputs {
		body, err := json.Marshal(struct {
			Pixels []float32 `json:"pixels"`
		}{img.Data()})
		if err != nil {
			return nil, err
		}
		t.Bodies = append(t.Bodies, body)
	}
	picks := make([]int, 1<<16)
	for i := range picks {
		picks[i] = rng.Intn(len(t.Bodies))
	}
	t.Pick = func(seq int) int { return picks[seq%len(picks)] }
	return t, nil
}

// inferReply and classifyReply are the response fields the checks read.
type inferReply struct {
	Pred int `json:"pred"`
}

type classifyReply struct {
	AccuracyPct float64 `json:"accuracy_pct"`
	MACFaults   int64   `json:"mac_faults"`
	ECC         struct {
		Detected int64 `json:"detected"`
		Silent   int64 `json:"silent"`
	} `json:"ecc"`
}

// Check classifies one HTTP response to request seq.
func (t *Traffic) Check(name string, seq, code int, body []byte) Outcome {
	switch code {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		return Shed
	default:
		return Failed
	}
	if name == wlClassify {
		var r classifyReply
		if json.Unmarshal(body, &r) != nil {
			return Failed
		}
		if r.AccuracyPct != t.WantAccuracy || r.MACFaults != 0 || r.ECC.Detected+r.ECC.Silent != 0 {
			return Failed
		}
		return OK
	}
	var r inferReply
	if json.Unmarshal(body, &r) != nil || r.Pred != t.WantPred[t.Pick(seq)] {
		return Failed
	}
	return OK
}

// httpFire drives the in-process handler: no sockets, one
// ResponseRecorder per request.
func httpFire(b *Bench, t *Traffic) Fire {
	return func(ctx context.Context, seq int, s *Shot, now func() int64) Outcome {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.Workload.Path,
			bytes.NewReader(t.Bodies[t.Pick(seq)]))
		if err != nil {
			return Failed
		}
		rec := httptest.NewRecorder()
		s.Start = now()
		b.Handler.ServeHTTP(rec, req)
		s.End = now()
		return t.Check(b.Workload.Name, seq, rec.Code, rec.Body.Bytes())
	}
}
