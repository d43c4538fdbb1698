// Package textplot renders simple ASCII plots — CDFs, line series, and
// histograms — for the command-line tools. It exists so that the figures
// the experiments regenerate can be eyeballed in a terminal next to the
// thesis's plots.
package textplot

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"meshlab/internal/stats"
)

// Plot is a fixed-size character canvas with axes.
type Plot struct {
	width, height  int
	xmin, xmax     float64
	ymin, ymax     float64
	grid           [][]rune
	xlabel, ylabel string
}

// New creates a canvas of the given interior size (columns × rows) and
// data ranges. Width and height are clamped to at least 8×4; inverted or
// degenerate ranges are repaired.
func New(width, height int, xmin, xmax, ymin, ymax float64) *Plot {
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	if xmax <= xmin {
		xmax = xmin + 1
	}
	if ymax <= ymin {
		ymax = ymin + 1
	}
	p := &Plot{width: width, height: height, xmin: xmin, xmax: xmax, ymin: ymin, ymax: ymax}
	p.grid = make([][]rune, height)
	for i := range p.grid {
		p.grid[i] = make([]rune, width)
		for j := range p.grid[i] {
			p.grid[i][j] = ' '
		}
	}
	return p
}

// Labels sets the axis labels.
func (p *Plot) Labels(x, y string) *Plot {
	p.xlabel, p.ylabel = x, y
	return p
}

// cellFor maps a data point to canvas coordinates; ok is false when the
// point is outside the ranges.
func (p *Plot) cellFor(x, y float64) (col, row int, ok bool) {
	if math.IsNaN(x) || math.IsNaN(y) || x < p.xmin || x > p.xmax || y < p.ymin || y > p.ymax {
		return 0, 0, false
	}
	col = int((x - p.xmin) / (p.xmax - p.xmin) * float64(p.width-1))
	row = p.height - 1 - int((y-p.ymin)/(p.ymax-p.ymin)*float64(p.height-1))
	return col, row, true
}

// Mark plots a single point with the given glyph.
func (p *Plot) Mark(x, y float64, glyph rune) {
	if col, row, ok := p.cellFor(x, y); ok {
		p.grid[row][col] = glyph
	}
}

// Series plots a sequence of points with the given glyph.
func (p *Plot) Series(pts []stats.Point, glyph rune) *Plot {
	for _, pt := range pts {
		p.Mark(pt.X, pt.Y, glyph)
	}
	return p
}

// Render draws the canvas with a left axis, bottom axis, and range labels.
func (p *Plot) Render() string {
	var b strings.Builder
	if p.ylabel != "" {
		fmt.Fprintf(&b, "%s\n", p.ylabel)
	}
	for i, row := range p.grid {
		switch i {
		case 0:
			fmt.Fprintf(&b, "%8.3g |", p.ymax)
		case p.height - 1:
			fmt.Fprintf(&b, "%8.3g |", p.ymin)
		default:
			b.WriteString("         |")
		}
		b.WriteString(string(row))
		b.WriteString("\n")
	}
	b.WriteString("         +" + strings.Repeat("-", p.width) + "\n")
	fmt.Fprintf(&b, "%10.3g%*s\n", p.xmin, p.width, fmt.Sprintf("%.3g", p.xmax))
	if p.xlabel != "" {
		fmt.Fprintf(&b, "%*s\n", 10+p.width/2+len(p.xlabel)/2, p.xlabel)
	}
	return b.String()
}

// CDF renders an empirical CDF of xs with the given canvas size.
func CDF(xs []float64, width, height int, xlabel string) string {
	return CDFOf(stats.NewCDF(xs), width, height, xlabel)
}

// CDFOf renders an already-built CDF, like CDF.
func CDFOf(cdf *stats.CDF, width, height int, xlabel string) string {
	if cdf.N() == 0 {
		return "(no data)\n"
	}
	vals := cdf.Values()
	lo, hi := vals[0], vals[len(vals)-1]
	p := New(width, height, lo, hi, 0, 1).Labels(xlabel, "CDF")
	p.Series(cdf.Points(width*2), '*')
	return p.Render()
}

// Histogram renders integer-bucketed counts as a horizontal bar chart.
func Histogram(pts []stats.Point, width int, label string) string {
	if len(pts) == 0 {
		return "(no data)\n"
	}
	if width < 10 {
		width = 10
	}
	maxY := 0.0
	for _, pt := range pts {
		if pt.Y > maxY {
			maxY = pt.Y
		}
	}
	var b strings.Builder
	if label != "" {
		fmt.Fprintf(&b, "%s\n", label)
	}
	for _, pt := range pts {
		bar := 0
		if maxY > 0 {
			bar = int(pt.Y / maxY * float64(width))
		}
		fmt.Fprintf(&b, "%8.4g | %-*s %g\n", pt.X, width, strings.Repeat("#", bar), pt.Y)
	}
	return b.String()
}

// Lines renders several named series on one canvas, assigning each a
// distinct glyph from "*+ox#@" in order.
func Lines(series map[string][]stats.Point, width, height int, xlabel, ylabel string) string {
	if len(series) == 0 {
		return "(no data)\n"
	}
	glyphs := []rune("*+ox#@%&")
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	names := make([]string, 0, len(series))
	for name, pts := range series {
		names = append(names, name)
		for _, pt := range pts {
			xmin = math.Min(xmin, pt.X)
			xmax = math.Max(xmax, pt.X)
			ymin = math.Min(ymin, pt.Y)
			ymax = math.Max(ymax, pt.Y)
		}
	}
	sort.Strings(names)
	p := New(width, height, xmin, xmax, ymin, ymax).Labels(xlabel, ylabel)
	var legend strings.Builder
	for i, name := range names {
		g := glyphs[i%len(glyphs)]
		p.Series(series[name], g)
		fmt.Fprintf(&legend, "  %c %s", g, name)
	}
	return p.Render() + "legend:" + legend.String() + "\n"
}
