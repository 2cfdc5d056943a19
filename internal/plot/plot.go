// Package plot renders small ASCII charts for terminal output — CDFs and
// time series from the experiment tables, so figure shapes can be eyeballed
// without leaving the repository (the CSVs under results/ remain the
// machine-readable artifacts).
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line on a chart.
type Series struct {
	Name string
	X, Y []float64
}

// Options controls chart geometry.
type Options struct {
	Width  int // plot area columns (default 60)
	Height int // plot area rows (default 16)
	LogX   bool
	Title  string
	XLabel string
	YLabel string
}

func (o *Options) defaults() {
	if o.Width <= 0 {
		o.Width = 60
	}
	if o.Height <= 0 {
		o.Height = 16
	}
}

var markers = []byte{'*', 'o', '+', 'x', '#', '@'}

// Render draws the series into a text chart. Each series gets a distinct
// marker; a legend and axis ranges are appended.
func Render(opt Options, series ...Series) string {
	opt.defaults()
	// Bounds.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if opt.LogX {
				if x <= 0 {
					continue
				}
				x = math.Log10(x)
			}
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	if math.IsInf(minX, 1) || minX == maxX && minY == maxY {
		if math.IsInf(minX, 1) {
			return "(no data)\n"
		}
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, opt.Height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", opt.Width))
	}
	for si, s := range series {
		m := markers[si%len(markers)]
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if opt.LogX {
				if x <= 0 {
					continue
				}
				x = math.Log10(x)
			}
			col := int((x - minX) / (maxX - minX) * float64(opt.Width-1))
			row := opt.Height - 1 - int((y-minY)/(maxY-minY)*float64(opt.Height-1))
			if row >= 0 && row < opt.Height && col >= 0 && col < opt.Width {
				grid[row][col] = m
			}
		}
	}

	var b strings.Builder
	if opt.Title != "" {
		fmt.Fprintf(&b, "%s\n", opt.Title)
	}
	for r, row := range grid {
		yVal := maxY - (maxY-minY)*float64(r)/float64(opt.Height-1)
		fmt.Fprintf(&b, "%10.3g |%s|\n", yVal, string(row))
	}
	xlo, xhi := minX, maxX
	unit := ""
	if opt.LogX {
		xlo, xhi = math.Pow(10, minX), math.Pow(10, maxX)
		unit = " (log)"
	}
	fmt.Fprintf(&b, "%10s  %-*s\n", "", opt.Width, fmt.Sprintf("%.3g%s%s%.3g",
		xlo, strings.Repeat(" ", max(1, opt.Width-24)), unit+" ", xhi))
	if opt.XLabel != "" || opt.YLabel != "" {
		fmt.Fprintf(&b, "%10s  x: %s   y: %s\n", "", opt.XLabel, opt.YLabel)
	}
	for si, s := range series {
		fmt.Fprintf(&b, "%10s  %c %s\n", "", markers[si%len(markers)], s.Name)
	}
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
