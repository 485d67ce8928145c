package main

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// calibrateClients is the closed-loop concurrency used to measure
// capacity: enough callers to fill every batch the front-end forms.
const calibrateClients = 32

// calibrateMain measures the workload's closed-loop capacity through the
// HTTP handler: calibrateClients callers, each sending its next request
// when the previous one returns, for dur. The benchmark never runs this
// itself; it is how the constant offered rates were derived (README.md).
func calibrateMain(ctx context.Context, wl Workload, seed int64, dur time.Duration) error {
	ref, err := refDeploy(wl.Name)
	if err != nil {
		return err
	}
	tr, err := makeTraffic(wl.Name, seed, ref)
	if err != nil {
		return err
	}
	b, err := bringUp(ctx, wl)
	if err != nil {
		return err
	}
	defer b.Close()
	fire := httpFire(b, tr)
	var (
		mu     sync.Mutex
		counts [3]int
		wg     sync.WaitGroup
	)
	start := time.Now()
	now := func() int64 { return int64(time.Since(start)) }
	for c := 0; c < calibrateClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := c; time.Since(start) < dur; seq += calibrateClients {
				var s Shot
				o := fire(ctx, seq, &s, now)
				mu.Lock()
				counts[o]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	el := time.Since(start).Seconds()
	fmt.Printf("%s: closed-loop capacity %.1f ok/s over %.1fs with %d clients (ok=%d shed=%d failed=%d)\n",
		wl.Name, float64(counts[OK])/el, el, calibrateClients, counts[OK], counts[Shed], counts[Failed])
	return nil
}
