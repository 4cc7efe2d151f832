package report

import (
	"fmt"
	"html/template"
	"io"
)

// HTMLDoc composes headings, paragraphs, tables and heatmaps into one
// self-contained HTML page (inline CSS, no external assets, stdlib
// html/template only) — the report artifact `campaign attr -html` writes.
type HTMLDoc struct {
	Title  string
	blocks []htmlBlock
}

// htmlBlock is one rendered section. Kind selects the template branch.
type htmlBlock struct {
	Kind     string // "heading", "para", "table", "heatmap", "timeline", "div", "script"
	Text     string
	Table    *Table
	Heatmap  *Heatmap
	Timeline *Timeline
	Script   template.JS
}

// NewHTMLDoc starts an empty document.
func NewHTMLDoc(title string) *HTMLDoc {
	return &HTMLDoc{Title: title}
}

// AddHeading appends a section heading.
func (d *HTMLDoc) AddHeading(text string) {
	d.blocks = append(d.blocks, htmlBlock{Kind: "heading", Text: text})
}

// AddParagraph appends a paragraph of plain text (escaped).
func (d *HTMLDoc) AddParagraph(text string) {
	d.blocks = append(d.blocks, htmlBlock{Kind: "para", Text: text})
}

// AddTable appends a table.
func (d *HTMLDoc) AddTable(t *Table) {
	d.blocks = append(d.blocks, htmlBlock{Kind: "table", Table: t})
}

// AddHeatmap appends a heatmap grid.
func (d *HTMLDoc) AddHeatmap(h *Heatmap) {
	d.blocks = append(d.blocks, htmlBlock{Kind: "heatmap", Heatmap: h})
}

// AddTimeline appends a horizontal span chart.
func (d *HTMLDoc) AddTimeline(t *Timeline) {
	d.blocks = append(d.blocks, htmlBlock{Kind: "timeline", Timeline: t})
}

// AddDiv appends an empty anchor <div id=...> for script-driven content
// (the live dashboard fills these from its event stream).
func (d *HTMLDoc) AddDiv(id string) {
	d.blocks = append(d.blocks, htmlBlock{Kind: "div", Text: id})
}

// AddScript appends an inline <script> block. The script source is
// emitted verbatim (template.JS): callers pass trusted, compiled-in
// code only — never user input.
func (d *HTMLDoc) AddScript(js string) {
	d.blocks = append(d.blocks, htmlBlock{Kind: "script", Script: template.JS(js)})
}

// Timeline is a horizontal span chart: one labelled row per span, with a
// bar positioned by its start offset and width as fractions of the whole
// chart. `campaign trace -html` renders cross-process trace waterfalls
// with it.
type Timeline struct {
	Title string
	Rows  []TimelineRow
}

// TimelineRow is one bar on the chart. Left and Width are fractions of
// the chart width in [0, 1]; Proc tags the row and selects the bar color
// (rows sharing a Proc share a color).
type TimelineRow struct {
	Label string
	Proc  string
	Left  float64
	Width float64
	// Text is the row's hover tooltip.
	Text string
}

// timelinePalette cycles per distinct Proc value, assigned by first
// appearance so colors are stable for a given row order.
var timelinePalette = []string{
	"#4878cf", "#6acc65", "#d65f5f", "#b47cc7", "#c4ad66", "#77bedb",
	"#e39802", "#8c613c",
}

// procColors maps each distinct Proc to a palette entry by first
// appearance in the row list.
func (t *Timeline) procColors() map[string]string {
	m := map[string]string{}
	for _, r := range t.Rows {
		if _, ok := m[r.Proc]; !ok {
			m[r.Proc] = timelinePalette[len(m)%len(timelinePalette)]
		}
	}
	return m
}

// Bars is the template view: each row with its resolved CSS. Computed at
// render time so color assignment sees the full row list.
func (t *Timeline) Bars() []timelineBar {
	colors := t.procColors()
	out := make([]timelineBar, 0, len(t.Rows))
	for _, r := range t.Rows {
		left := clamp01(r.Left)
		width := clamp01(r.Width)
		if left+width > 1 {
			width = 1 - left
		}
		// Keep hairline spans visible.
		if width < 0.0035 {
			width = 0.0035
		}
		out = append(out, timelineBar{
			TimelineRow: r,
			Style: template.CSS(fmt.Sprintf("left:%.3f%%;width:%.3f%%;background:%s",
				left*100, width*100, colors[r.Proc])),
		})
	}
	return out
}

// timelineBar is one row plus its computed bar style.
type timelineBar struct {
	TimelineRow
	Style template.CSS
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Heatmap is a labelled grid of shaded cells (e.g. bit position x
// instruction misprediction density).
type Heatmap struct {
	Title string
	// Cols are the column headers, in order.
	Cols []string
	Rows []HeatmapRow
}

// HeatmapRow is one labelled heatmap row.
type HeatmapRow struct {
	Label string
	Cells []HeatmapCell
}

// HeatmapCell is one grid cell. Value in [0, 1] drives the shade; Filled
// distinguishes a zero-valued observation from no observation at all.
type HeatmapCell struct {
	Filled bool
	Value  float64
	// Text is the cell's hover tooltip.
	Text string
}

// Color returns the cell's CSS background color: a white-to-red ramp over
// Value for filled cells, near-white for empty ones.
func (c HeatmapCell) Color() template.CSS {
	if !c.Filled {
		return template.CSS("#fafafa")
	}
	v := c.Value
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	// Linear ramp #f7f7f7 -> #b2182b.
	lerp := func(a, b int) int { return a + int(v*float64(b-a)) }
	return template.CSS(fmt.Sprintf("#%02x%02x%02x",
		lerp(0xf7, 0xb2), lerp(0xf7, 0x18), lerp(0xf7, 0x2b)))
}

// htmlTmpl renders the whole document. html/template escaping keeps
// every text field safe; HeatmapCell.Color is template.CSS by
// construction (a hex literal).
var htmlTmpl = template.Must(template.New("doc").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}}</title>
<style>
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto; max-width: 75em; padding: 0 1em; color: #222; }
h1 { font-size: 1.5em; } h2 { font-size: 1.15em; margin-top: 2em; }
table { border-collapse: collapse; margin: 0.75em 0; }
th, td { border: 1px solid #ccc; padding: 0.25em 0.6em; text-align: left; font-variant-numeric: tabular-nums; }
th { background: #f0f0f0; }
caption { caption-side: top; text-align: left; font-weight: 600; padding: 0.25em 0; }
.hm td { width: 1.1em; height: 1.1em; padding: 0; border: 1px solid #eee; }
.hm th { font-weight: 400; font-size: 0.75em; background: none; border: none; }
.hm td.lbl { width: auto; padding: 0 0.6em 0 0; border: none; white-space: nowrap; font-size: 0.85em; }
.tl { margin: 0.75em 0; }
.tlcap { font-weight: 600; padding: 0.25em 0; }
.tlrow { display: flex; align-items: center; height: 1.35em; }
.tlrow:hover { background: #f0f4ff; }
.tllbl { width: 26em; overflow: hidden; white-space: pre; font: 12px/1.3 ui-monospace, monospace; flex: none; }
.tlproc { width: 9em; overflow: hidden; white-space: nowrap; font-size: 0.75em; color: #666; flex: none; }
.tltrack { position: relative; flex: 1; height: 0.8em; background: #f4f4f4; border-left: 1px solid #ddd; border-right: 1px solid #ddd; }
.tlbar { position: absolute; top: 0; height: 100%; border-radius: 2px; }
</style>
</head>
<body>
<h1>{{.Title}}</h1>
{{range .Blocks}}{{if eq .Kind "heading"}}<h2>{{.Text}}</h2>
{{else if eq .Kind "para"}}<p>{{.Text}}</p>
{{else if eq .Kind "table"}}<table>
<caption>{{.Table.Title}}</caption>
<tr>{{range .Table.Columns}}<th>{{.}}</th>{{end}}</tr>
{{range .Table.Rows}}<tr>{{range .}}<td>{{.}}</td>{{end}}</tr>
{{end}}</table>
{{else if eq .Kind "heatmap"}}<table class="hm">
<caption>{{.Heatmap.Title}}</caption>
<tr><th></th>{{range .Heatmap.Cols}}<th>{{.}}</th>{{end}}</tr>
{{range .Heatmap.Rows}}<tr><td class="lbl">{{.Label}}</td>{{range .Cells}}<td style="background:{{.Color}}" title="{{.Text}}"></td>{{end}}</tr>
{{end}}</table>
{{else if eq .Kind "timeline"}}<div class="tl"><div class="tlcap">{{.Timeline.Title}}</div>
{{range .Timeline.Bars}}<div class="tlrow" title="{{.Text}}"><span class="tllbl">{{.Label}}</span><span class="tlproc">{{.Proc}}</span><span class="tltrack"><span class="tlbar" style="{{.Style}}"></span></span></div>
{{end}}</div>
{{else if eq .Kind "div"}}<div id="{{.Text}}"></div>
{{else if eq .Kind "script"}}<script>{{.Script}}</script>
{{end}}{{end}}</body>
</html>
`))

// htmlData is the exported view the template executes over (the doc's
// block list is unexported).
type htmlData struct {
	Title  string
	Blocks []htmlBlock
}

// Render writes the document as a complete HTML page.
func (d *HTMLDoc) Render(w io.Writer) error {
	return htmlTmpl.Execute(w, htmlData{Title: d.Title, Blocks: d.blocks})
}
