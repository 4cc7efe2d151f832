package campaign

import (
	"fmt"
	"sort"

	"repro/internal/attr"
	"repro/internal/content"
	"repro/internal/fi"
	"repro/internal/interp"
	"repro/internal/obs"
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

// LogState is the replayed content of a campaign log: what a restarted
// coordinator needs to rebuild its merge state and lease table.
type LogState struct {
	// Records maps run index to its logged result.
	Records map[int64]fi.Record
	// ShardsDone marks shards whose every index is present.
	ShardsDone map[int]bool
	// Spans are the replayed trace spans (deduplicated by span ID) — a
	// restarted coordinator uses them to keep rejecting duplicate span
	// subtrees from requeued shards.
	Spans []obs.SpanRecord
}

// DurableLog is the coordinator-side handle on a standard campaign log:
// whole shards are appended atomically (runs, then the shard_done marker,
// then an fsync checkpoint), so the file is always a valid input to
// `campaign status`, `campaign merge` and `campaign resume`.
type DurableLog struct {
	w    *logWriter
	plan *Plan
}

// OpenDurableLog opens (or resumes) the merged result log for a plan and
// returns the replayed state. An existing log must carry the same plan.
func OpenDurableLog(path string, plan *Plan) (*DurableLog, *LogState, error) {
	w, rp, err := resumeLog(path, plan)
	if err != nil {
		return nil, nil, err
	}
	st := &LogState{Records: rp.Records, ShardsDone: make(map[int]bool), Spans: rp.Spans}
	for _, i := range rp.completeShards() {
		st.ShardsDone[i] = true
	}
	return &DurableLog{w: w, plan: plan}, st, nil
}

// AppendShard durably records one completed shard: its run records, the
// shard_done marker, and an fsync checkpoint. After it returns, a crashed
// and restarted coordinator will replay the shard as done.
func (l *DurableLog) AppendShard(shard int, recs []RunRec) error {
	for _, r := range recs {
		if err := l.w.append(runToLog(r.Index, r.Record())); err != nil {
			return err
		}
	}
	if err := l.w.append(logRecord{Kind: kindShardDone, Shard: shard}); err != nil {
		return err
	}
	return l.w.checkpoint()
}

// AppendAttr durably records an attribution-ledger snapshot. The log may
// carry several (one per checkpoint); replay keeps the last.
func (l *DurableLog) AppendAttr(s *attr.Snapshot) error {
	if s == nil {
		return nil
	}
	if err := l.w.append(logRecord{Kind: kindAttr, Attr: s}); err != nil {
		return err
	}
	return l.w.checkpoint()
}

// AppendSpans durably records a batch of trace spans (a worker's shipped
// shard subtree, the coordinator's own merge spans). Readers dedup by
// span ID, so the caller only filters for economy, not correctness.
func (l *DurableLog) AppendSpans(spans []obs.SpanRecord) error {
	if len(spans) == 0 {
		return nil
	}
	if err := l.w.appendSpans(spans); err != nil {
		return err
	}
	return l.w.checkpoint()
}

// Close flushes and closes the log.
func (l *DurableLog) Close() error { return l.w.close() }

// Assemble builds a campaign Result from an externally collected record
// set (the dist coordinator's merge), using the same tallying path as the
// in-process engine — the merged result of a distributed campaign is
// therefore bit-identical to a single-process run of the same plan.
func Assemble(plan *Plan, records map[int64]fi.Record) *Result {
	st := &state{plan: plan, records: records}
	return st.result()
}
