package moldesign

import (
	"sort"

	"repro/internal/devent"
)

// RunPipelined executes the campaign asynchronously — the paper's own
// suggestion under Fig. 3: "Pipe-lining this application will yield
// higher accelerator utilization." Instead of the batch-synchronous
// simulate→train→infer→simulate lockstep, simulations stream
// continuously while the GPU retrains and rescores in the background:
//
//   - every completed simulation joins the dataset immediately;
//   - whenever BatchSize new results have arrived and no training is
//     in flight, a retrain starts;
//   - each new emulator immediately scores a fresh candidate pool and
//     the top picks are submitted as simulations, up to the same total
//     simulation budget as the synchronous campaign.
//
// Total simulated molecules equal Run's (InitialPool + Rounds×Batch),
// so makespan and GPU-utilization comparisons are like for like. Lost
// tasks are resubmitted and counted as in Run; a simulation lost for
// good still spends its share of the budget.
func (c *Campaign) RunPipelined(p *devent.Proc) (*Report, error) {
	cfg := c.cfg
	q := c.server.Queues()
	start := p.Now()
	rep := &Report{}
	budget := cfg.InitialPool + cfg.Rounds*cfg.BatchSize

	const topic = "stream"
	var (
		dataset       []SimResult
		simsSubmitted int
		simsDone      int
		trainInFlight bool
		lastTrainSize int
		chunksLeft    int
		emulator      *Emulator
		nextID        int
		simulated     = map[int]bool{}
		batchAccum    float64
		batchCount    int
	)

	submitSim := func(m Molecule) {
		if simsSubmitted >= budget || simulated[m.ID] {
			return
		}
		simulated[m.ID] = true
		simsSubmitted++
		c.server.Submit(topic, "simulate", m)
	}
	maybeTrain := func() {
		if trainInFlight || simsSubmitted >= budget {
			return
		}
		if len(dataset)-lastTrainSize < cfg.BatchSize && lastTrainSize > 0 {
			return
		}
		if len(dataset) == 0 {
			return
		}
		trainInFlight = true
		lastTrainSize = len(dataset)
		c.server.Submit(topic, "train", append([]SimResult(nil), dataset...))
	}

	for _, m := range Pool(cfg.Seed, nextID, cfg.InitialPool) {
		submitSim(m)
	}
	nextID += cfg.InitialPool

	for simsDone < budget {
		r := q.Recv(p, topic)
		if c.resubmit(r, rep) {
			continue
		}
		failed := r.Err != nil
		switch {
		case r.Method == "simulate" && failed:
			simsDone++
			maybeTrain()
		case r.Method == "simulate":
			res := r.Value.(SimResult)
			dataset = append(dataset, res)
			simsDone++
			if res.IP > rep.BestIP {
				rep.BestIP, rep.BestMolecule = res.IP, res.Molecule
			}
			if simsDone <= cfg.InitialPool && res.IP > rep.InitialBestIP {
				rep.InitialBestIP = res.IP
			}
			if simsDone > cfg.InitialPool {
				batchAccum += res.IP
				batchCount++
				if batchCount == cfg.BatchSize {
					rep.RoundBatchMeanIP = append(rep.RoundBatchMeanIP, batchAccum/float64(batchCount))
					batchAccum, batchCount = 0, 0
				}
			}
			maybeTrain()
		case r.Method == "train" && failed:
			trainInFlight = false
		case r.Method == "train":
			emulator = r.Value.(*Emulator)
			trainInFlight = false
			// Score a fresh pool with the new emulator, overlapping
			// with the in-flight simulations.
			candidates := Pool(cfg.Seed, nextID, cfg.CandidatePool)
			nextID += cfg.CandidatePool
			for lo := 0; lo < len(candidates); lo += cfg.InferChunk {
				hi := lo + cfg.InferChunk
				if hi > len(candidates) {
					hi = len(candidates)
				}
				c.server.Submit(topic, "infer", emulator, candidates[lo:hi])
				chunksLeft++
			}
			c.pipelineScored = c.pipelineScored[:0]
		case r.Method == "infer":
			if !failed {
				c.pipelineScored = append(c.pipelineScored, r.Value.([]Scored)...)
			}
			chunksLeft--
			if chunksLeft == 0 {
				sort.Slice(c.pipelineScored, func(i, j int) bool {
					return c.pipelineScored[i].Pred > c.pipelineScored[j].Pred
				})
				picked := 0
				for _, s := range c.pipelineScored {
					if picked == cfg.BatchSize || simsSubmitted >= budget {
						break
					}
					if !simulated[s.Molecule.ID] {
						submitSim(s.Molecule)
						picked++
					}
				}
				maybeTrain()
			}
		}
		if simsDone < budget && simsDone == simsSubmitted && !trainInFlight && chunksLeft == 0 {
			// Lost tasks left nothing in flight to pick the next
			// simulations: take them unscored from a fresh pool.
			for _, m := range Pool(cfg.Seed, nextID, cfg.BatchSize) {
				submitSim(m)
			}
			nextID += cfg.BatchSize
		}
	}

	var sum float64
	base := Pool(cfg.Seed+7, 1_000_000, cfg.CandidatePool)
	for _, m := range base {
		sum += TrueIP(m)
	}
	rep.PoolMeanIP = sum / float64(len(base))
	rep.Dataset = len(dataset)
	if emulator != nil {
		rep.FinalRMSE = RMSE(emulator, dataset)
	}
	rep.Makespan = p.Now() - start
	return rep, nil
}
