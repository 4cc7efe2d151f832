package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/report"
)

// Cross-process span-tree assembly: BuildSpanTrees stitches persisted
// span records (campaign logs, worker subtrees, daemon replies) into one
// tree per trace ID. Records are deduplicated by span ID before linking —
// first occurrence wins — so requeued shards whose spans were shipped by
// two workers, or a resumed campaign that re-emits its deterministic root
// span, never double-count, mirroring the shard-hash record dedup.

// SpanNode is one span plus its children, sorted by start time.
type SpanNode struct {
	SpanRecord
	Children []*SpanNode
}

// SpanTree is the assembled tree for one trace ID.
type SpanTree struct {
	TraceID string
	// Roots are the parentless spans plus any orphans (spans whose
	// parent never arrived), sorted by start time.
	Roots []*SpanNode
	// Orphans counts spans promoted to roots because their parent is
	// missing — a healthy complete trace has 0.
	Orphans int
	// Spans is the deduplicated span count.
	Spans int
	// Procs are the distinct producing processes, sorted.
	Procs []string
}

// BuildSpanTrees groups records by trace ID and assembles one tree per
// trace, sorted by earliest span start. Records without a trace ID are
// dropped (plain phase spans cannot be correlated).
func BuildSpanTrees(recs []SpanRecord) []*SpanTree {
	byTrace := make(map[string][]SpanRecord)
	order := []string{}
	seen := make(map[string]bool, len(recs))
	for _, rec := range recs {
		if rec.TraceID == "" || rec.SpanID == "" {
			continue
		}
		key := rec.TraceID + "/" + rec.SpanID
		if seen[key] {
			continue
		}
		seen[key] = true
		if _, ok := byTrace[rec.TraceID]; !ok {
			order = append(order, rec.TraceID)
		}
		byTrace[rec.TraceID] = append(byTrace[rec.TraceID], rec)
	}
	out := make([]*SpanTree, 0, len(order))
	for _, tid := range order {
		out = append(out, buildTree(tid, byTrace[tid]))
	}
	sort.SliceStable(out, func(i, j int) bool {
		return treeStart(out[i]).Before(treeStart(out[j]))
	})
	return out
}

func buildTree(tid string, recs []SpanRecord) *SpanTree {
	nodes := make(map[string]*SpanNode, len(recs))
	procs := make(map[string]bool)
	for _, rec := range recs {
		nodes[rec.SpanID] = &SpanNode{SpanRecord: rec}
		if rec.Proc != "" {
			procs[rec.Proc] = true
		}
	}
	tree := &SpanTree{TraceID: tid, Spans: len(recs)}
	for _, rec := range recs {
		node := nodes[rec.SpanID]
		if rec.ParentID != "" {
			if parent, ok := nodes[rec.ParentID]; ok {
				parent.Children = append(parent.Children, node)
				continue
			}
			tree.Orphans++
		}
		tree.Roots = append(tree.Roots, node)
	}
	var sortChildren func(n *SpanNode)
	sortChildren = func(n *SpanNode) {
		sort.SliceStable(n.Children, func(i, j int) bool {
			return n.Children[i].Start.Before(n.Children[j].Start)
		})
		for _, c := range n.Children {
			sortChildren(c)
		}
	}
	sort.SliceStable(tree.Roots, func(i, j int) bool {
		return tree.Roots[i].Start.Before(tree.Roots[j].Start)
	})
	for _, r := range tree.Roots {
		sortChildren(r)
	}
	for p := range procs {
		tree.Procs = append(tree.Procs, p)
	}
	sort.Strings(tree.Procs)
	return tree
}

func treeStart(tr *SpanTree) time.Time {
	if len(tr.Roots) == 0 {
		return time.Time{}
	}
	return tr.Roots[0].Start
}

// Bounds returns the earliest start and latest end across every span in
// the tree.
func (tr *SpanTree) Bounds() (start, end time.Time) {
	var walk func(n *SpanNode)
	walk = func(n *SpanNode) {
		e := n.Start.Add(time.Duration(n.WallNS))
		if start.IsZero() || n.Start.Before(start) {
			start = n.Start
		}
		if e.After(end) {
			end = e
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range tr.Roots {
		walk(r)
	}
	return start, end
}

// Wall is the end-to-end duration of the trace.
func (tr *SpanTree) Wall() time.Duration {
	start, end := tr.Bounds()
	return end.Sub(start)
}

// Header is the one-line trace summary ("trace <id>: N spans across M
// processes ...") that heads both renderings — and that
// cmd/campaign's TestCrossProcessTrace checks.
func (tr *SpanTree) Header() string {
	return fmt.Sprintf("trace %s: %d spans across %d processes (%s), %d orphans, wall %s",
		tr.TraceID, tr.Spans, len(tr.Procs), strings.Join(tr.Procs, ", "),
		tr.Orphans, tr.Wall().Round(time.Millisecond))
}

// flatten walks the tree depth-first, calling fn with each node's depth.
func (tr *SpanTree) flatten(fn func(n *SpanNode, depth int)) {
	var walk func(n *SpanNode, depth int)
	walk = func(n *SpanNode, depth int) {
		fn(n, depth)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range tr.Roots {
		walk(r, 0)
	}
}

// RenderWaterfall renders the trace as a text waterfall: one row per
// span, indented by tree depth, with offset/duration columns and an
// ASCII gutter bar positioned on the trace's wall-clock extent.
func (tr *SpanTree) RenderWaterfall() string {
	const gutter = 40
	start, end := tr.Bounds()
	total := end.Sub(start)
	var b strings.Builder
	b.WriteString(tr.Header())
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  %-14s %-44s %10s %10s  %s\n", "proc", "span", "offset", "wall", "timeline")
	tr.flatten(func(n *SpanNode, depth int) {
		name := strings.Repeat("  ", depth) + n.Name
		if len(name) > 44 {
			name = name[:41] + "..."
		}
		offset := n.Start.Sub(start)
		bar := asciiBar(gutter, total, offset, time.Duration(n.WallNS))
		fmt.Fprintf(&b, "  %-14s %-44s %10s %10s  [%s]\n",
			n.Proc, name,
			"+"+offset.Round(time.Microsecond).String(),
			time.Duration(n.WallNS).Round(time.Microsecond).String(),
			bar)
	})
	return b.String()
}

// asciiBar draws a width-cell gutter with '#' over the span's extent.
func asciiBar(width int, total, offset, wall time.Duration) string {
	cells := make([]byte, width)
	for i := range cells {
		cells[i] = '.'
	}
	if total <= 0 {
		return string(cells)
	}
	lo := int(float64(offset) / float64(total) * float64(width))
	hi := int(float64(offset+wall) / float64(total) * float64(width))
	if lo >= width {
		lo = width - 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	if hi > width {
		hi = width
	}
	for i := lo; i < hi; i++ {
		cells[i] = '#'
	}
	return string(cells)
}

// Timeline converts the trace to a report.Timeline block for the HTML
// rendering (`campaign trace -html`).
func (tr *SpanTree) Timeline() *report.Timeline {
	start, end := tr.Bounds()
	total := end.Sub(start)
	tl := &report.Timeline{Title: tr.Header()}
	tr.flatten(func(n *SpanNode, depth int) {
		left, width := 0.0, 1.0
		if total > 0 {
			left = float64(n.Start.Sub(start)) / float64(total)
			width = float64(n.WallNS) / float64(total)
		}
		tl.Rows = append(tl.Rows, report.TimelineRow{
			Label: strings.Repeat("  ", depth) + n.Name,
			Proc:  n.Proc,
			Left:  left,
			Width: width,
			Text: fmt.Sprintf("%s · %s · +%s · %s · span %s",
				n.Proc, n.Name,
				n.Start.Sub(start).Round(time.Microsecond),
				time.Duration(n.WallNS).Round(time.Microsecond),
				n.SpanID),
		})
	})
	return tl
}

// TimelineHTML renders one or more traces as a standalone HTML timeline
// page.
func TimelineHTML(title string, trees []*SpanTree) *report.HTMLDoc {
	doc := report.NewHTMLDoc(title)
	for _, tr := range trees {
		doc.AddTimeline(tr.Timeline())
	}
	return doc
}
