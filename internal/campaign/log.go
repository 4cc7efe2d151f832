package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/attr"
	"repro/internal/fi"
	"repro/internal/interp"
	"repro/internal/obs"
)

// Log record kinds. A campaign log is append-only JSONL: one header, then
// run records in completion order (each self-identifying by run index),
// shard checkpoints, and optionally one stop record. Because every run
// record carries its index, the log is valid in any interleaving — crash
// mid-write loses at most the unflushed tail, never consistency.
const (
	kindHeader    = "header"
	kindRun       = "run"
	kindShardDone = "shard_done"
	kindStop      = "stop"
	// kindAttr carries an attribution-ledger snapshot (appended at
	// checkpoint/finish time; on replay the last one wins). It is a
	// convenience cache: `campaign attr` can always recompute the ledger
	// from the run records when the module is available.
	kindAttr = "attr"
	// kindSpans carries a batch of completed trace spans (shard spans,
	// injection exemplars, remote daemon spans) persisted at checkpoints.
	// Replay deduplicates by (trace, span) ID with the first occurrence
	// winning, so requeued shards and resumed campaigns never
	// double-count — the same rule the record merge applies via shard
	// hashes. `campaign trace` reads them back into cross-process trees.
	kindSpans = "spans"
)

// logRecord is the envelope for every JSONL line.
type logRecord struct {
	Kind string `json:"kind"`
	// header
	Plan *Plan `json:"plan,omitempty"`
	// run
	Index   int64  `json:"index,omitempty"`
	Event   int64  `json:"event,omitempty"`
	Bit     int    `json:"bit,omitempty"`
	Mask    uint64 `json:"mask,omitempty"`
	Outcome int    `json:"outcome,omitempty"`
	Exc     int    `json:"exc,omitempty"`
	// shard_done
	Shard int `json:"shard,omitempty"`
	// stop
	Done   int64  `json:"done,omitempty"`
	Saved  int64  `json:"saved,omitempty"`
	Reason string `json:"reason,omitempty"`
	// attr
	Attr *attr.Snapshot `json:"attr,omitempty"`
	// spans
	Spans []obs.SpanRecord `json:"spans,omitempty"`
}

func runToLog(index int64, rec fi.Record) logRecord {
	return logRecord{
		Kind:    kindRun,
		Index:   index,
		Event:   rec.Target.Event,
		Bit:     rec.Target.Bit,
		Mask:    rec.Target.Mask,
		Outcome: int(rec.Outcome),
		Exc:     int(rec.Exc),
	}
}

func (lr logRecord) fiRecord() fi.Record {
	return fi.Record{
		Target:  fi.Target{Event: lr.Event, Bit: lr.Bit, Mask: lr.Mask},
		Outcome: fi.Outcome(lr.Outcome),
		Exc:     interp.ExcKind(lr.Exc),
	}
}

// maxLogLine bounds one log line, newline included. readLog cannot read
// a longer line, so writers refuse to write one.
const maxLogLine = 4 << 20

// errLineTooLong marks a record whose line would exceed maxLogLine.
var errLineTooLong = errors.New("record exceeds the log line limit")

// lineEncoder encodes log records, one JSON line each, into a reusable
// buffer, refusing any line longer than maxLogLine.
type lineEncoder struct {
	line bytes.Buffer
	enc  *json.Encoder
}

func newLineEncoder() *lineEncoder {
	e := &lineEncoder{}
	e.enc = json.NewEncoder(&e.line)
	return e
}

// encode returns rec's line; it is valid until the next call.
func (e *lineEncoder) encode(rec logRecord) ([]byte, error) {
	e.line.Reset()
	if err := e.enc.Encode(rec); err != nil {
		return nil, fmt.Errorf("campaign: encoding log record: %w", err)
	}
	if n := e.line.Len(); n > maxLogLine {
		return nil, fmt.Errorf("campaign: %s record of %d bytes: %w of %d bytes", rec.Kind, n, errLineTooLong, maxLogLine)
	}
	return e.line.Bytes(), nil
}

// CheckSpans reports the first span too large to log even in a record of
// its own; a span append refuses any batch holding one.
func CheckSpans(spans []obs.SpanRecord) error {
	e := newLineEncoder()
	for i := range spans {
		if _, err := e.encode(logRecord{Kind: kindSpans, Spans: spans[i : i+1]}); err != nil {
			return fmt.Errorf("span %s: %w", spans[i].SpanID, err)
		}
	}
	return nil
}

// logWriter appends records to a campaign log file. Writes are buffered;
// Checkpoint flushes and fsyncs so completed shards survive a crash.
type logWriter struct {
	f   *os.File
	buf *bufio.Writer
	*lineEncoder
}

// resumeLog opens plan's log at path for appending and returns what it
// already holds. An existing log must carry a compatible plan; an absent
// one is created with the plan header and replays as empty.
func resumeLog(path string, plan *Plan) (*logWriter, *replay, error) {
	rp, err := readLog(path)
	fresh := false
	switch {
	case err == nil:
		if err := plan.Compatible(rp.Plan); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
	case os.IsNotExist(err):
		fresh = true
		rp = &replay{Plan: plan, Records: make(map[int64]fi.Record)}
	default:
		return nil, nil, err
	}
	w, err := openLog(path, plan, fresh)
	if err != nil {
		return nil, nil, err
	}
	return w, rp, nil
}

// openLog opens (creating if needed) a log for appending. When the file is
// fresh, the plan header is written first; when it already has content,
// the caller is expected to have replayed it and verified the plan.
func openLog(path string, plan *Plan, fresh bool) (*logWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: opening log: %w", err)
	}
	return startLog(f, plan, fresh)
}

// startLog wraps f in a log writer, writing and syncing the plan header
// first when the log is fresh. It closes f when it fails.
func startLog(f *os.File, plan *Plan, fresh bool) (*logWriter, error) {
	w := &logWriter{f: f, buf: bufio.NewWriterSize(f, 1<<16), lineEncoder: newLineEncoder()}
	if fresh {
		if err := w.append(logRecord{Kind: kindHeader, Plan: plan}); err != nil {
			f.Close()
			return nil, err
		}
		if err := w.checkpoint(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return w, nil
}

// append writes one record, or nothing when its line would exceed
// maxLogLine.
func (w *logWriter) append(rec logRecord) error {
	line, err := w.encode(rec)
	if err != nil {
		return err
	}
	if _, err := w.buf.Write(line); err != nil {
		return fmt.Errorf("campaign: appending log record: %w", err)
	}
	return nil
}

// appendSpans writes a span batch as one record when it fits a line, else
// as halves, recursively. Readers dedup spans by ID, so the split is
// invisible to them. A span too large for a line of its own refuses the
// batch before anything is written.
func (w *logWriter) appendSpans(spans []obs.SpanRecord) error {
	err := w.append(logRecord{Kind: kindSpans, Spans: spans})
	if !errors.Is(err, errLineTooLong) {
		return err
	}
	if err := CheckSpans(spans); err != nil {
		return err
	}
	return w.appendHalves(spans)
}

// appendHalves writes spans, each of which fits a line alone, as two
// halves, splitting further any half that does not fit.
func (w *logWriter) appendHalves(spans []obs.SpanRecord) error {
	mid := len(spans) / 2
	for _, half := range [][]obs.SpanRecord{spans[:mid], spans[mid:]} {
		err := w.append(logRecord{Kind: kindSpans, Spans: half})
		if errors.Is(err, errLineTooLong) {
			err = w.appendHalves(half)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// checkpoint makes everything appended so far durable.
func (w *logWriter) checkpoint() error {
	if err := w.buf.Flush(); err != nil {
		return fmt.Errorf("campaign: flushing log: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("campaign: fsync log: %w", err)
	}
	return nil
}

func (w *logWriter) close() error {
	if err := w.buf.Flush(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// replay is the parsed state of a campaign log.
type replay struct {
	Plan *Plan
	// Records maps run index to its result for every logged run.
	Records map[int64]fi.Record
	// ShardsDone marks shards with a durable completion checkpoint.
	ShardsDone map[int]bool
	// Stopped is set when the log carries an adaptive-stop decision.
	Stopped bool
	Saved   int64
	Reason  string
	// Attr is the last attribution snapshot in the log, if any.
	Attr *attr.Snapshot
	// Spans are the persisted trace spans, deduplicated by span ID in
	// first-appearance order.
	Spans []obs.SpanRecord
	// spanSeen backs the span dedup while scanning.
	spanSeen map[string]bool
	// logged counts the distinct runs read so far per shard.
	logged map[int]int64
}

// readLog parses a campaign log. A trailing partial line (torn write from
// a crash) is tolerated and ignored; any other malformed content is an
// error. Returns os.ErrNotExist when the file is absent.
func readLog(path string) (*replay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rp := &replay{
		Records:    make(map[int64]fi.Record),
		ShardsDone: make(map[int]bool),
		logged:     make(map[int]int64),
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), maxLogLine)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec logRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			// A torn final line is the expected crash artifact; anything
			// before the end is corruption.
			if moreData(sc) {
				return nil, fmt.Errorf("campaign: %s:%d: malformed log record: %v", path, line, err)
			}
			break
		}
		if err := rp.check(rec); err != nil {
			return nil, fmt.Errorf("campaign: %s:%d: %w", path, line, err)
		}
		switch rec.Kind {
		case kindHeader:
			rp.Plan = rec.Plan
		case kindRun:
			if _, dup := rp.Records[rec.Index]; !dup {
				rp.logged[int(rec.Index/rp.Plan.ShardSize)]++
			}
			rp.Records[rec.Index] = rec.fiRecord()
		case kindShardDone:
			rp.ShardsDone[rec.Shard] = true
		case kindStop:
			rp.Stopped = true
			rp.Saved = rec.Saved
			rp.Reason = rec.Reason
		case kindAttr:
			rp.Attr = rec.Attr
		case kindSpans:
			rp.addSpans(rec.Spans)
		default:
			return nil, fmt.Errorf("campaign: %s:%d: unknown record kind %q", path, line, rec.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("campaign: reading log %s: %w", path, err)
	}
	if rp.Plan == nil {
		return nil, fmt.Errorf("campaign: log %s has no plan header", path)
	}
	return rp, nil
}

// check rejects a parsed record that no campaign writes: a second or
// empty header, a plan with no runs or shards or whose shard count
// overflows, run or shard_done records before the header or outside its
// plan's geometry and enums, and a shard_done ahead of any of its runs.
func (rp *replay) check(rec logRecord) error {
	switch rec.Kind {
	case kindHeader:
		switch {
		case rp.Plan != nil:
			return fmt.Errorf("duplicate header")
		case rec.Plan == nil:
			return fmt.Errorf("header carries no plan")
		case rec.Plan.Runs <= 0 || rec.Plan.ShardSize <= 0:
			return fmt.Errorf("plan has %d runs in shards of %d, want both positive", rec.Plan.Runs, rec.Plan.ShardSize)
		case rec.Plan.Runs > math.MaxInt64-(rec.Plan.ShardSize-1):
			return fmt.Errorf("plan has %d runs in shards of %d, too many to count shards", rec.Plan.Runs, rec.Plan.ShardSize)
		}
	case kindRun:
		if rp.Plan == nil {
			return fmt.Errorf("run record before the plan header")
		}
		return RunRec{Index: rec.Index, Outcome: rec.Outcome, Exc: rec.Exc}.Check(rp.Plan)
	case kindShardDone:
		switch {
		case rp.Plan == nil:
			return fmt.Errorf("shard_done record before the plan header")
		case rec.Shard < 0 || rec.Shard >= rp.Plan.NumShards():
			return fmt.Errorf("shard %d outside [0, %d)", rec.Shard, rp.Plan.NumShards())
		}
		if lo, hi := rp.Plan.ShardRange(rec.Shard); rp.logged[rec.Shard] != hi-lo {
			return fmt.Errorf("shard_done %d after %d of its %d runs", rec.Shard, rp.logged[rec.Shard], hi-lo)
		}
	}
	return nil
}

// LogData is the exported view of a parsed campaign log, for tools (like
// `campaign attr`) that consume logs outside the engine.
type LogData struct {
	Plan *Plan
	// Records maps run index to its result for every logged run.
	Records map[int64]fi.Record
	// Attr is the last persisted attribution snapshot, nil when the
	// campaign ran without a ledger.
	Attr *attr.Snapshot
	// Spans are the persisted trace spans (deduplicated), empty when the
	// campaign ran untraced. `campaign trace` assembles them into
	// cross-process trees.
	Spans   []obs.SpanRecord
	Stopped bool
	Saved   int64
	Reason  string
}

// ReadLogData parses a campaign log into its exported form.
func ReadLogData(path string) (*LogData, error) {
	rp, err := readLog(path)
	if err != nil {
		return nil, err
	}
	return &LogData{
		Plan:    rp.Plan,
		Records: rp.Records,
		Attr:    rp.Attr,
		Spans:   rp.Spans,
		Stopped: rp.Stopped,
		Saved:   rp.Saved,
		Reason:  rp.Reason,
	}, nil
}

// SortedRecords returns the log's records in run-index order.
func (d *LogData) SortedRecords() []fi.Record {
	idxs := make([]int64, 0, len(d.Records))
	for i := range d.Records {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	out := make([]fi.Record, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, d.Records[i])
	}
	return out
}

// addSpans folds a span batch into the replay, deduplicating by
// (trace, span) ID — first occurrence wins, so a requeued shard's
// re-shipped subtree or a resumed campaign's re-emitted deterministic
// root changes nothing.
func (rp *replay) addSpans(spans []obs.SpanRecord) {
	if rp.spanSeen == nil {
		rp.spanSeen = make(map[string]bool)
	}
	for _, sp := range spans {
		if sp.SpanID == "" {
			continue
		}
		key := sp.TraceID + "/" + sp.SpanID
		if rp.spanSeen[key] {
			continue
		}
		rp.spanSeen[key] = true
		rp.Spans = append(rp.Spans, sp)
	}
}

// moreData reports whether the scanner still has content after the current
// token — i.e. the just-failed line was not the final one.
func moreData(sc *bufio.Scanner) bool {
	return sc.Scan()
}

// completeShards returns, in ascending order, the shards whose every run
// is among the records; readLog has checked that each shard_done shard is
// one of them. It visits only the shards the records name, so its cost
// follows the log, not the plan's run count.
func (rp *replay) completeShards() []int {
	p := rp.Plan
	logged := make(map[int]int64)
	for idx := range rp.Records {
		logged[int(idx/p.ShardSize)]++
	}
	var out []int
	for s, n := range logged {
		if lo, hi := p.ShardRange(s); n == hi-lo {
			out = append(out, s)
		}
	}
	slices.Sort(out)
	return out
}

// MergeLogs combines shard logs produced by separate processes running the
// same plan into one log at out. Inputs must share an identical plan.
// Duplicate deliveries of the same work — overlapping log directories, or
// at-least-once redelivery from the dist fabric — are deduplicated before
// tallying: complete shards by their content hash (ShardHash), loose runs
// by index. A duplicate whose content *differs* is rejected loudly, since
// identical plans must produce identical records; silent double-counting
// is impossible either way. Returns the merged status.
//
// The merged log is written to a temporary file beside out, synced, and
// renamed over out only once complete, so out may already exist or be
// one of the inputs: either way it ends up holding exactly the merge.
//
// Attribution snapshots in the inputs are dropped rather than merged:
// input logs may cover overlapping record sets, and a cached ledger says
// nothing about which records produced it — `campaign attr` recomputes
// the ledger from the merged run records, which is always exact.
func MergeLogs(out string, inputs []string) (*Status, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("campaign: merge needs at least one input log")
	}
	var plan *Plan
	// merged accumulates the union; addSpans dedups spans across inputs.
	merged := &replay{Records: make(map[int64]fi.Record)}
	records := merged.Records
	recordSrc := make(map[int64]string)
	shardHashes := make(map[int]string)
	shardSrc := make(map[int]string)
	for _, in := range inputs {
		rp, err := readLog(in)
		if err != nil {
			return nil, err
		}
		if plan == nil {
			plan = rp.Plan
		} else if err := plan.Compatible(rp.Plan); err != nil {
			return nil, fmt.Errorf("%s: %w", in, err)
		}
		// Complete shards dedupe wholesale by content hash.
		for _, s := range rp.completeShards() {
			lo, hi := plan.ShardRange(s)
			recs := make([]RunRec, 0, hi-lo)
			for idx := lo; idx < hi; idx++ {
				recs = append(recs, NewRunRec(idx, rp.Records[idx]))
			}
			h := ShardHash(plan.ID, s, recs)
			if prev, ok := shardHashes[s]; ok {
				if prev != h {
					return nil, fmt.Errorf("campaign: merge conflict: shard %d content %s in %s vs %s in %s (plan %s) — inputs disagree on identical work",
						s, h, in, prev, shardSrc[s], plan.ID)
				}
				continue // exact duplicate shard: already merged
			}
			shardHashes[s] = h
			shardSrc[s] = in
		}
		for idx, rec := range rp.Records {
			if old, ok := records[idx]; ok {
				if old != rec {
					return nil, fmt.Errorf("campaign: merge conflict: run %d differs between %s and %s (plan %s)",
						idx, in, recordSrc[idx], plan.ID)
				}
				continue
			}
			records[idx] = rec
			recordSrc[idx] = in
		}
		if rp.Stopped {
			merged.Stopped = true
			merged.Saved = rp.Saved
			merged.Reason = rp.Reason
		}
		merged.addSpans(rp.Spans)
	}
	merged.Plan = plan
	f, err := os.CreateTemp(filepath.Dir(out), filepath.Base(out)+".tmp-")
	if err != nil {
		return nil, fmt.Errorf("campaign: merge: %w", err)
	}
	defer os.Remove(f.Name()) // fails harmlessly once renamed over out
	w, err := startLog(f, plan, true)
	if err != nil {
		return nil, err
	}
	err = merged.writeTo(w)
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), out)
	}
	if err != nil {
		return nil, err
	}
	return ReadStatus(out)
}

// writeTo appends a merge's body to a log whose header is written: the
// runs in index order, the complete shards, the stop decision if any
// input carried one, and the deduplicated spans.
func (rp *replay) writeTo(w *logWriter) error {
	idxs := make([]int64, 0, len(rp.Records))
	for idx := range rp.Records {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	for _, idx := range idxs {
		if err := w.append(runToLog(idx, rp.Records[idx])); err != nil {
			return err
		}
	}
	for _, s := range rp.completeShards() {
		if err := w.append(logRecord{Kind: kindShardDone, Shard: s}); err != nil {
			return err
		}
	}
	if rp.Stopped {
		if err := w.append(logRecord{Kind: kindStop, Done: int64(len(rp.Records)), Saved: rp.Saved, Reason: rp.Reason}); err != nil {
			return err
		}
	}
	if len(rp.Spans) > 0 {
		return w.appendSpans(rp.Spans)
	}
	return nil
}
