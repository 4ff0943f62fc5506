// Package sizeclass implements Hoard's geometric size classes.
//
// The paper's allocator segregates blocks into size classes that are a
// factor b apart (b = 1.2 in the released implementation), so internal
// fragmentation is bounded by b while keeping the number of classes small.
// Superblocks hold blocks of exactly one class; requests larger than half a
// superblock bypass the class machinery entirely.
package sizeclass

import "fmt"

const (
	// Quantum is the minimum block granularity; all class sizes are
	// multiples of it and allocations are at least this aligned.
	Quantum = 8

	// DefaultBase is the paper's growth factor between consecutive size
	// classes.
	DefaultBase = 1.2
)

// Table maps request sizes to size classes and back. A Table is immutable
// after construction and safe for concurrent use.
type Table struct {
	sizes  []int
	lookup []uint8 // (size+Quantum-1)/Quantum -> class
	base   float64
	max    int
}

// New builds a table of geometric size classes with the given growth factor,
// minimum class size min, and maximum class size max. It panics on invalid
// parameters (base <= 1, min < Quantum, max < min, or more than 255 classes).
func New(base float64, min, max int) *Table {
	if base <= 1.0 {
		panic(fmt.Errorf("sizeclass: base %v must exceed 1", base))
	}
	if min < Quantum || min%Quantum != 0 {
		panic(fmt.Errorf("sizeclass: min %d must be a positive multiple of %d", min, Quantum))
	}
	if max < min {
		panic(fmt.Errorf("sizeclass: max %d < min %d", max, min))
	}
	t := &Table{base: base, max: max}
	for s := min; ; {
		t.sizes = append(t.sizes, s)
		if s >= max {
			break
		}
		next := roundUp(int(float64(s)*base), Quantum)
		if next <= s {
			next = s + Quantum
		}
		if next > max {
			next = max
		}
		s = next
	}
	if len(t.sizes) > 255 {
		panic(fmt.Errorf("sizeclass: %d classes exceed 255; base too close to 1", len(t.sizes)))
	}
	t.lookup = make([]uint8, max/Quantum+1)
	class := 0
	for q := 1; q <= max/Quantum; q++ {
		for q*Quantum > t.sizes[class] {
			class++
		}
		t.lookup[q] = uint8(class)
	}
	return t
}

func roundUp(n, q int) int { return (n + q - 1) / q * q }

// NumClasses returns the number of size classes.
func (t *Table) NumClasses() int { return len(t.sizes) }

// MaxSize returns the largest size served by a class; larger requests must
// take the allocator's large-object path.
func (t *Table) MaxSize() int { return t.max }

// Base returns the growth factor the table was built with.
func (t *Table) Base() float64 { return t.base }

// ClassFor returns the smallest class whose block size can hold a request of
// size bytes, and ok=false if the request exceeds MaxSize. A request of zero
// bytes maps to class 0, matching malloc(0) returning a minimal block. So
// does a negative size, which never arrives from the public API: its calls
// panic on one first.
func (t *Table) ClassFor(size int) (class int, ok bool) {
	if size <= 0 {
		return 0, true
	}
	if size > t.max {
		return 0, false
	}
	return int(t.lookup[(size+Quantum-1)/Quantum]), true
}

// Size returns the block size of a class. It panics on an out-of-range
// class.
func (t *Table) Size(class int) int { return t.sizes[class] }

// Sizes returns a copy of all class sizes in ascending order.
func (t *Table) Sizes() []int {
	out := make([]int, len(t.sizes))
	copy(out, t.sizes)
	return out
}
