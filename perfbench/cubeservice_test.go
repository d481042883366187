package main

import (
	"math"
	"testing"
)

func TestMixWeightsSumToOne(t *testing.T) {
	var sum float64
	for _, c := range csClasses {
		if c.weight <= 0 {
			t.Errorf("class %s has weight %v", c.name, c.weight)
		}
		sum += c.weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("mix weights sum to %v, want 1", sum)
	}
}

func TestReplyEqualSeesEveryValue(t *testing.T) {
	want := csReply{Rows: 2, ImplicitLen: 3, Measure: "T", Values: [][]float32{{1, 2, 3}, {4, 5, 6}}}
	same := csReply{Rows: 2, ImplicitLen: 3, Measure: "T", Values: [][]float32{{1, 2, 3}, {4, 5, 6}}}
	if !same.equal(want) {
		t.Fatal("identical replies differ")
	}
	for name, got := range map[string]csReply{
		"zeroed value": {Rows: 2, ImplicitLen: 3, Measure: "T", Values: [][]float32{{1, 2, 3}, {4, 0, 6}}},
		"dropped row":  {Rows: 2, ImplicitLen: 3, Measure: "T", Values: [][]float32{{1, 2, 3}}},
		"short row":    {Rows: 2, ImplicitLen: 3, Measure: "T", Values: [][]float32{{1, 2, 3}, {4, 5}}},
		"row count":    {Rows: 1, ImplicitLen: 3, Measure: "T", Values: want.Values},
		"measure":      {Rows: 2, ImplicitLen: 3, Measure: "P", Values: want.Values},
	} {
		if got.equal(want) {
			t.Errorf("%s: reply reads as equal", name)
		}
	}
}
