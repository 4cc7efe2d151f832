package campaign

import (
	"fmt"
	"sort"

	"repro/internal/content"
	"repro/internal/fi"
	"repro/internal/interp"
)

// RunRec is the wire- and log-level form of one run's result: the same
// fields a `run` log line carries, exported so the dist layer can stream
// shard results between processes and hash them canonically.
type RunRec struct {
	Index   int64  `json:"index"`
	Event   int64  `json:"event"`
	Bit     int    `json:"bit"`
	Mask    uint64 `json:"mask"`
	Outcome int    `json:"outcome"`
	Exc     int    `json:"exc"`
}

// NewRunRec converts an executed record into its wire form.
func NewRunRec(index int64, rec fi.Record) RunRec {
	return RunRec{
		Index:   index,
		Event:   rec.Target.Event,
		Bit:     rec.Target.Bit,
		Mask:    rec.Target.Mask,
		Outcome: int(rec.Outcome),
		Exc:     int(rec.Exc),
	}
}

// Record converts back to the in-memory form.
func (r RunRec) Record() fi.Record {
	return fi.Record{
		Target:  fi.Target{Event: r.Event, Bit: r.Bit, Mask: r.Mask},
		Outcome: fi.Outcome(r.Outcome),
		Exc:     interp.ExcKind(r.Exc),
	}
}

// Check rejects a run record that no campaign writes: an index outside
// [0, plan.Runs), or an outcome or exception kind outside its enum. Log
// replay applies it to every logged run and the dist coordinator to every
// delivered one, so each run the coordinator logs reads back.
func (r RunRec) Check(plan *Plan) error {
	switch {
	case r.Index < 0 || r.Index >= plan.Runs:
		return fmt.Errorf("run index %d outside [0, %d)", r.Index, plan.Runs)
	case !fi.Outcome(r.Outcome).Valid():
		return fmt.Errorf("run %d has unknown outcome %d", r.Index, r.Outcome)
	case r.Exc != 0 && !interp.ExcKind(r.Exc).Valid():
		return fmt.Errorf("run %d has unknown exception kind %d", r.Index, r.Exc)
	}
	return nil
}

// ShardHash digests one shard's results into the idempotency token of the
// dist protocol: because run records depend only on (plan, index), every
// correct worker computes the same hash for the same shard, so the
// coordinator can accept at-least-once redelivery (hash matches → drop as
// duplicate) and reject divergent results (hash differs → stale or
// corrupt worker). The records are sorted by index first, so delivery
// order does not matter.
func ShardHash(planID string, shard int, recs []RunRec) string {
	sorted := make([]RunRec, len(recs))
	copy(sorted, recs)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Index < sorted[b].Index })
	h := content.NewHasher(fmt.Sprintf("epvf-shard-v1 plan=%s shard=%d", planID, shard))
	for _, r := range sorted {
		h.Printf("%d %d %d %d %d %d\n", r.Index, r.Event, r.Bit, r.Mask, r.Outcome, r.Exc)
	}
	return h.Sum()
}

// Assemble builds a campaign Result from an externally collected record
// set (the dist coordinator's merge), using the same tallying path as the
// in-process engine — the merged result of a distributed campaign is
// therefore bit-identical to a single-process run of the same plan.
func Assemble(plan *Plan, records map[int64]fi.Record) *Result {
	st := &state{plan: plan, records: records}
	return st.result()
}
