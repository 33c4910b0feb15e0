package wdm

import "fmt"

// FullConverter allows any wavelength to be converted to any other at one
// uniform cost — assumption (i) of §3.3 ("fully switching is allowed at each
// node ... and the switching cost at a node is identical").
type FullConverter struct{ cost float64 }

// NewFullConverter returns a full-range converter over w wavelengths whose
// every non-identity conversion costs cost.
func NewFullConverter(w int, cost float64) *FullConverter {
	if cost < 0 {
		panic("wdm: negative conversion cost")
	}
	return &FullConverter{cost: cost}
}

// Allowed implements Converter; every conversion is permitted.
func (c *FullConverter) Allowed(from, to Wavelength) bool { return true }

// UniformCost returns the cost of every non-identity conversion. It exposes
// the converter's closed form so callers aggregating over wavelength pairs
// (auxgraph's conversion-edge means) can replace the generic Σ over
// Allowed(λp, λq) with counting arithmetic on the availability bitsets.
func (c *FullConverter) UniformCost() float64 { return c.cost }

// Cost implements Converter.
func (c *FullConverter) Cost(from, to Wavelength) float64 {
	if from == to {
		return 0
	}
	return c.cost
}

// NoConverter forbids all wavelength conversion: a semilightpath through such
// a node must obey the wavelength-continuity constraint (the Lemma 1 regime).
type NoConverter struct{}

// Allowed implements Converter; only the identity is permitted.
func (NoConverter) Allowed(from, to Wavelength) bool { return from == to }

// Cost implements Converter.
func (NoConverter) Cost(from, to Wavelength) float64 { return 0 }

// RangeConverter allows conversion only between wavelengths within a fixed
// index distance k (limited-range conversion hardware), at a cost
// proportional to the distance.
type RangeConverter struct {
	k        int
	unitCost float64
}

// NewRangeConverter returns a converter permitting |from−to| ≤ k with cost
// unitCost·|from−to|.
func NewRangeConverter(k int, unitCost float64) *RangeConverter {
	if k < 0 || unitCost < 0 {
		panic("wdm: invalid range converter parameters")
	}
	return &RangeConverter{k: k, unitCost: unitCost}
}

// Allowed implements Converter.
func (c *RangeConverter) Allowed(from, to Wavelength) bool {
	d := from - to
	if d < 0 {
		d = -d
	}
	return d <= c.k
}

// Cost implements Converter.
func (c *RangeConverter) Cost(from, to Wavelength) float64 {
	d := from - to
	if d < 0 {
		d = -d
	}
	return c.unitCost * float64(d)
}

// MatrixConverter stores an explicit conversion cost table — "the switching
// operation at a node uses a wavelength conversion table, which is given in
// advance" (§2). A negative entry marks the conversion as disallowed.
type MatrixConverter struct {
	w    int
	cost []float64 // row-major w×w; cost[from*w+to] < 0 means disallowed
}

// NewMatrixConverter returns a converter backed by the given w×w table.
// Diagonal entries must be 0.
func NewMatrixConverter(w int, table [][]float64) *MatrixConverter {
	if len(table) != w {
		panic("wdm: conversion table has wrong row count")
	}
	m := &MatrixConverter{w: w, cost: make([]float64, w*w)}
	for i, row := range table {
		if len(row) != w {
			panic(fmt.Sprintf("wdm: conversion table row %d has wrong length", i))
		}
		if row[i] != 0 {
			panic(fmt.Sprintf("wdm: c(λ%d, λ%d) must be 0, got %g", i, i, row[i]))
		}
		copy(m.cost[i*w:(i+1)*w], row)
	}
	return m
}

// Allowed implements Converter.
func (m *MatrixConverter) Allowed(from, to Wavelength) bool {
	return m.cost[from*m.w+to] >= 0
}

// Cost implements Converter.
func (m *MatrixConverter) Cost(from, to Wavelength) float64 {
	return m.cost[from*m.w+to]
}
