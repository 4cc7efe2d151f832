package serve

import "repro/internal/obs"

// Wire types of the /v1/analyze endpoint. The request carries the
// module as textual IR — the canonical program representation every
// layer of the pipeline already hashes — and the reply carries the
// cacheable Summary plus provenance: which pipeline stage satisfied
// the request and under what content address.

// SpanHeader is the response header blob endpoints return their
// handling span in (one JSON-encoded obs.SpanRecord): those responses
// are opaque byte streams, so the span travels out of band. The analyze
// endpoint returns spans in the JSON reply instead.
const SpanHeader = "X-Epvf-Span"

// StageHeader is the response header the analyze endpoint reports its
// serving stage in — on every reply, success or error, so callers (and
// curl users) can read the tier without parsing the body. Errors that
// never resolved a stage report StageUnresolved.
const StageHeader = "X-Epvf-Stage"

// AnalyzeRequest asks the daemon for the ePVF analysis of one module.
type AnalyzeRequest struct {
	// IR is the textual IR of the module (ir.Print output, or anything
	// ir.Parse accepts — the daemon reprints the parsed module before
	// hashing, so formatting differences cannot split the cache).
	IR string `json:"ir"`
}

// Analysis stages a reply can be served from, cheapest first.
const (
	// StageSummary: the summary cache held the final result.
	StageSummary = "summary-cache"
	// StageIncremental: the incremental tier composed the answer with at
	// least one per-function section profile reused from the cache
	// (Config.Incremental; internal/inc).
	StageIncremental = "incremental"
	// StageComputed: the analysis ran without reusing anything: a plain
	// daemon's full profile + analysis, or an incremental daemon that
	// walked every section fresh.
	StageComputed = "computed"
	// StageUnresolved marks error replies that failed before any tier
	// could answer (bad request, analysis error).
	StageUnresolved = "unresolved"
)

// SectionStats reports the incremental tier's per-section accounting for
// the request that computed the reply (absent on summary-cache hits —
// no sections were consulted).
type SectionStats struct {
	// Total, Reused and Recomputed count the module's sections and how
	// many were served from the section cache vs freshly walked.
	Total      int `json:"total"`
	Reused     int `json:"reused"`
	Recomputed int `json:"recomputed"`
	// RecomputedNames lists the sections that re-analyzed, in trace
	// order — after a single-function edit this is the one changed
	// function.
	RecomputedNames []string `json:"recomputed_names,omitempty"`
}

// AnalyzeReply is the daemon's answer.
type AnalyzeReply struct {
	// ModuleHash is the content address the result is cached under.
	ModuleHash string `json:"module_hash"`
	// Stage reports which pipeline stage satisfied the request.
	Stage string `json:"stage"`
	// CacheHit is true unless the stage is computed.
	CacheHit bool `json:"cache_hit"`
	// Summary is the analysis result.
	Summary *Summary `json:"summary"`
	// Sections is the incremental tier's section breakdown, when that
	// tier computed this reply.
	Sections *SectionStats `json:"sections,omitempty"`
	// Spans are the daemon's handling spans for this request. When the
	// request carried a Traceparent header they are children of the
	// caller's span, so ingesting them stitches the daemon's work into
	// the caller's own trace.
	Spans []obs.SpanRecord `json:"spans,omitempty"`
}
