package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ibsim/internal/manifest"
	"ibsim/internal/server"
)

// defaultInstructions mirrors the server's default trace length so the
// coordinator's cache keys match what workers actually simulate.
const defaultInstructions = 2_000_000

// localFallbackReason marks a merged answer that ran (partly) on the
// embedded single-process fallback instead of the worker pool.
const localFallbackReason = "cluster: executed on local fallback; no workers available"

// Sweep scatters one sweep grid across the worker pool and merges the
// partial miss matrices into the answer a single process would produce.
// Exact (non-sampled) results are served from and stored into the
// coalescing result cache; shard completions are checkpointed when the
// coordinator has a durable Dir.
func (c *Coordinator) Sweep(ctx context.Context, req server.SweepRequest) (*server.SweepResponse, error) {
	c.mRequests.Add(1)
	start := time.Now()
	if req.Workload == "" {
		return nil, errors.New("cluster: sweep: workload required")
	}
	if len(req.Cells) == 0 {
		return nil, errors.New("cluster: sweep: at least one cell required")
	}
	if req.Instructions <= 0 {
		req.Instructions = defaultInstructions
	}
	base := sweepBase{Workload: req.Workload, Seed: req.Seed, Instructions: req.Instructions, LineSize: req.LineSize}
	sampled := req.Sampling != nil

	// Sampled answers are estimates with their own CI bookkeeping; they
	// scatter and merge but never enter the exact-result cache. Cells are
	// not deduplicated here so the answer stays parallel to the request.
	if sampled {
		resp, err := c.sweepScatter(ctx, req, base, req.Cells, nil, "")
		if err != nil {
			return nil, err
		}
		resp.ElapsedSeconds = time.Since(start).Seconds()
		return resp, nil
	}

	key := manifest.Key("sweep", base)
	unlock := c.lockKey(key)
	defer unlock()

	entry := c.cache.loadSweep(key, base)
	need := missingCells(entry, req)
	if len(need) == 0 {
		c.mCacheHit.Add(1)
		resp := sweepFromEntry(entry, req)
		resp.ElapsedSeconds = time.Since(start).Seconds()
		return resp, nil
	}
	c.mCacheMiss.Add(1)

	runKey := manifest.Key("sweep-run", struct {
		Base          sweepBase         `json:"base"`
		CountDistinct bool              `json:"count_distinct"`
		Cells         []server.CellSpec `json:"cells"`
	}{base, req.CountDistinct, need})

	resp, err := c.sweepScatter(ctx, req, base, need, entry, runKey)
	if err != nil {
		return nil, err
	}
	resp.ElapsedSeconds = time.Since(start).Seconds()
	return resp, nil
}

// dedupCells drops repeated geometries, preserving first-seen order.
func dedupCells(cells []server.CellSpec) []server.CellSpec {
	seen := map[server.CellSpec]bool{}
	out := make([]server.CellSpec, 0, len(cells))
	for _, cs := range cells {
		if !seen[cs] {
			seen[cs] = true
			out = append(out, cs)
		}
	}
	return out
}

// missingCells returns the requested geometries the cache entry does not
// cover. A request that wants distinct-line counts an entry without them
// cannot be served from that entry, so everything is missing.
func missingCells(entry *sweepEntry, req server.SweepRequest) []server.CellSpec {
	cells := dedupCells(req.Cells)
	if entry == nil || (req.CountDistinct && !entry.HasDistinct) {
		return cells
	}
	var need []server.CellSpec
	for _, cs := range cells {
		if _, ok := entry.find(cs.Sets, cs.Assoc); !ok {
			need = append(need, cs)
		}
	}
	return need
}

// chunk splits n items into k contiguous index runs.
func chunk(n, k int) [][]int {
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	out := make([][]int, 0, k)
	for s := 0; s < k; s++ {
		lo, hi := s*n/k, (s+1)*n/k
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		out = append(out, idx)
	}
	return out
}

// sweepScatter shards need across the pool, gathers, and merges. For exact
// runs (runKey != "") completed shards are checkpointed and previously
// checkpointed shards are resumed; the merged union is folded into entry
// and cached unless any part degraded.
func (c *Coordinator) sweepScatter(ctx context.Context, req server.SweepRequest, base sweepBase,
	need []server.CellSpec, entry *sweepEntry, runKey string) (*server.SweepResponse, error) {

	live := c.liveWorkers(ctx)
	k := len(live)
	if k == 0 {
		k = 1
	}
	if k > c.cfg.MaxShards {
		k = c.cfg.MaxShards
	}
	shards := chunk(len(need), k)

	// Adopt a persisted plan from a previous (interrupted) run of this
	// exact work, so its checkpointed shards line up; otherwise persist
	// the fresh plan before scattering.
	wantPlan := &sweepPlan{Base: base, CountDistinct: req.CountDistinct, Cells: need, Shards: shards}
	if runKey != "" {
		if saved, ok := c.ckpt.loadPlan(runKey, wantPlan); ok {
			shards = saved.Shards
		} else {
			c.ckpt.savePlan(runKey, wantPlan)
		}
	}

	ringKey := workloadKey(base.Workload, base.Seed, base.Instructions)
	type shardOut struct {
		resp  *server.SweepResponse
		local bool
		err   error
	}
	outs := make([]shardOut, len(shards))
	var wg sync.WaitGroup
	for i, cellIdx := range shards {
		shardCells := make([]server.CellSpec, len(cellIdx))
		for j, ci := range cellIdx {
			shardCells[j] = need[ci]
		}
		shardReq := req
		shardReq.Cells = shardCells
		if resp, ok := c.ckpt.loadShard(runKey, i); ok && verifySweepShard(shardReq, resp) == nil {
			c.mResume.Add(1)
			outs[i] = shardOut{resp: resp}
			continue
		}
		wg.Add(1)
		go func(i int, shardReq server.SweepRequest) {
			defer wg.Done()
			resp, local, err := runShard(c, ctx, fmt.Sprintf("sweep shard %d/%d", i+1, len(shards)),
				c.rotation(ringKey, i),
				func(ctx context.Context, cl Caller) (*server.SweepResponse, error) {
					return cl.Sweep(ctx, shardReq)
				},
				func(resp *server.SweepResponse) error { return verifySweepShard(shardReq, resp) })
			if err == nil && runKey != "" && !resp.Degraded {
				c.ckpt.saveShard(runKey, i, resp)
			}
			outs[i] = shardOut{resp, local, err}
		}(i, shardReq)
	}
	wg.Wait()

	for i, o := range outs {
		if o.err != nil {
			return nil, fmt.Errorf("sweep shard %d/%d: %w", i+1, len(shards), o.err)
		}
	}

	// Cross-shard consistency: every partial simulated the same trace, so
	// the trace-global counters must agree exactly. A mismatch means a
	// worker is nondeterministic or mis-versioned — refuse to merge.
	first := outs[0].resp
	anyLocal := false
	for i, o := range outs {
		if o.resp.Accesses != first.Accesses {
			return nil, fmt.Errorf("cluster: sweep shards disagree on trace accesses (%d vs %d in shard %d); refusing to merge",
				first.Accesses, o.resp.Accesses, i+1)
		}
		if req.CountDistinct && o.resp.Distinct != first.Distinct {
			return nil, fmt.Errorf("cluster: sweep shards disagree on distinct lines (%d vs %d in shard %d); refusing to merge",
				first.Distinct, o.resp.Distinct, i+1)
		}
		anyLocal = anyLocal || o.local
	}

	if req.Sampling != nil {
		return mergeSampledSweep(req, shards, outs[0].resp, func(i int) *server.SweepResponse { return outs[i].resp }, anyLocal)
	}

	// Fold the fresh cells into the union entry and cache it, unless part
	// of the answer came from the degraded local path.
	if entry == nil {
		entry = &sweepEntry{Base: base}
	}
	entry.Accesses = first.Accesses
	if req.CountDistinct {
		entry.HasDistinct = true
		entry.Distinct = first.Distinct
	}
	for si, cellIdx := range shards {
		for j := range cellIdx {
			entry.add(outs[si].resp.Cells[j])
		}
	}
	if !anyLocal {
		c.cache.storeSweep(manifest.Key("sweep", base), entry)
	}
	c.ckpt.clear(runKey)

	resp := sweepFromEntry(entry, req)
	if anyLocal {
		resp.Degraded = true
		resp.DegradedReason = localFallbackReason
	}
	return resp, nil
}

// verifySweepShard vets one shard answer before it may win: right
// workload, full requested scale (a clamped or sampled partial cannot
// merge with exact siblings), and cell-for-cell grid shape.
func verifySweepShard(req server.SweepRequest, resp *server.SweepResponse) error {
	switch {
	case resp == nil:
		return errors.New("nil response")
	case resp.Workload != req.Workload:
		return fmt.Errorf("answer for workload %q, want %q", resp.Workload, req.Workload)
	case resp.Instructions != req.Instructions:
		return fmt.Errorf("answer at clamped scale %d, want %d", resp.Instructions, req.Instructions)
	case (resp.Sampling != nil) != (req.Sampling != nil):
		return fmt.Errorf("sampling fidelity mismatch (got sampled=%v)", resp.Sampling != nil)
	case req.Sampling == nil && resp.Degraded:
		return fmt.Errorf("degraded partial (%s)", resp.DegradedReason)
	case len(resp.Cells) != len(req.Cells):
		return fmt.Errorf("%d cells in answer, want %d", len(resp.Cells), len(req.Cells))
	}
	for i, cs := range req.Cells {
		if resp.Cells[i].Sets != cs.Sets || resp.Cells[i].Assoc != cs.Assoc {
			return fmt.Errorf("cell %d is %dx%d, want %dx%d", i,
				resp.Cells[i].Sets, resp.Cells[i].Assoc, cs.Sets, cs.Assoc)
		}
	}
	return nil
}

// sweepFromEntry builds the response for req from a union entry that
// covers it, cells in request order.
func sweepFromEntry(entry *sweepEntry, req server.SweepRequest) *server.SweepResponse {
	resp := &server.SweepResponse{
		Workload:     entry.Base.Workload,
		Seed:         entry.Base.Seed,
		Instructions: entry.Base.Instructions,
		LineSize:     entry.Base.LineSize,
		Accesses:     entry.Accesses,
	}
	if req.CountDistinct {
		resp.Distinct = entry.Distinct
	}
	for _, cs := range req.Cells {
		cell, ok := entry.find(cs.Sets, cs.Assoc)
		if !ok {
			// Unreachable by construction (callers only build responses
			// from covering entries); fail loud rather than fabricate.
			panic(fmt.Sprintf("cluster: entry missing cell %dx%d", cs.Sets, cs.Assoc))
		}
		resp.Cells = append(resp.Cells, cell)
	}
	return resp
}

// mergeSampledSweep concatenates sampled shard answers. Shards are
// contiguous chunks of the deduplicated request cells, so concatenation
// restores request order; the aggregate CI is the cell-count-weighted mean
// of the shard CIs.
func mergeSampledSweep(req server.SweepRequest, shards [][]int, first *server.SweepResponse,
	shardResp func(int) *server.SweepResponse, anyLocal bool) (*server.SweepResponse, error) {

	resp := &server.SweepResponse{
		Workload:     first.Workload,
		Seed:         first.Seed,
		Instructions: first.Instructions,
		LineSize:     first.LineSize,
		Accesses:     first.Accesses,
		Distinct:     first.Distinct,
		Degraded:     anyLocal,
	}
	if anyLocal {
		resp.DegradedReason = localFallbackReason
	}
	var ciSum float64
	var cells int
	for i := range shards {
		sr := shardResp(i)
		if sr.Sampling == nil {
			return nil, fmt.Errorf("cluster: sampled shard %d returned no sampling info", i+1)
		}
		resp.Cells = append(resp.Cells, sr.Cells...)
		ciSum += sr.Sampling.CI95 * float64(len(sr.Cells))
		cells += len(sr.Cells)
		if resp.Sampling == nil {
			info := *sr.Sampling
			resp.Sampling = &info
		}
	}
	if resp.Sampling != nil && cells > 0 {
		resp.Sampling.CI95 = ciSum / float64(cells)
	}
	return resp, nil
}
