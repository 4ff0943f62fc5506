// Barnes-Hut n-body simulation on the public allocator API — the paper's
// application benchmark as a standalone program. Every quadtree node lives
// in allocator memory (allocated, read, and freed through hoard.Thread);
// the tree is rebuilt each timestep by parallel workers, which is exactly
// the churn pattern that rewards a scalable allocator.
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"

	hoard "hoardgo"
)

// Quadtree node layout in allocator memory (little-endian):
//
//	[0,32)   4 child pointers
//	[32,40)  mass        [40,56)  center of mass x,y
//	[56,72)  cell center x,y      [72,80)  half width
//	[80,88)  body index (-1 internal/empty)
//	[88,96)  subtree count
const nodeSize = 96

type world struct {
	t          *hoard.Thread
	pos, vel   [][2]float64
	mass       []float64
	nodeAllocs int
}

func (w *world) f64(b []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
}

func (w *world) putF64(b []byte, off int, v float64) {
	binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
}

func (w *world) newNode(cx, cy, half float64) hoard.Ptr {
	p := w.t.Calloc(nodeSize)
	w.nodeAllocs++
	b := w.t.Bytes(p, nodeSize)
	w.putF64(b, 56, cx)
	w.putF64(b, 64, cy)
	w.putF64(b, 72, half)
	binary.LittleEndian.PutUint64(b[80:], ^uint64(0)) // body = -1
	return p
}

func (w *world) insert(root hoard.Ptr, bi int) {
	p := root
	for depth := 0; ; depth++ {
		b := w.t.Bytes(p, nodeSize)
		count := int64(binary.LittleEndian.Uint64(b[88:]))
		if count == 0 {
			binary.LittleEndian.PutUint64(b[80:], uint64(bi))
			binary.LittleEndian.PutUint64(b[88:], 1)
			return
		}
		if count == 1 {
			if w.f64(b, 72) < 1e-9 || depth > 48 {
				binary.LittleEndian.PutUint64(b[88:], uint64(count+1))
				return
			}
			old := int(int64(binary.LittleEndian.Uint64(b[80:])))
			binary.LittleEndian.PutUint64(b[80:], ^uint64(0))
			co := w.child(p, w.pos[old])
			cb := w.t.Bytes(co, nodeSize)
			binary.LittleEndian.PutUint64(cb[80:], uint64(old))
			binary.LittleEndian.PutUint64(cb[88:], 1)
			b = w.t.Bytes(p, nodeSize)
		}
		count = int64(binary.LittleEndian.Uint64(b[88:]))
		binary.LittleEndian.PutUint64(b[88:], uint64(count+1))
		p = w.child(p, w.pos[bi])
	}
}

// child returns (creating if necessary) the quadrant child containing at.
func (w *world) child(p hoard.Ptr, at [2]float64) hoard.Ptr {
	b := w.t.Bytes(p, nodeSize)
	cx, cy, half := w.f64(b, 56), w.f64(b, 64), w.f64(b, 72)
	q, nx, ny := 0, cx-half/2, cy-half/2
	if at[0] >= cx {
		q |= 1
		nx = cx + half/2
	}
	if at[1] >= cy {
		q |= 2
		ny = cy + half/2
	}
	c := hoard.Ptr(binary.LittleEndian.Uint64(b[8*q:]))
	if c.IsNil() {
		c = w.newNode(nx, ny, half/2)
		b = w.t.Bytes(p, nodeSize)
		binary.LittleEndian.PutUint64(b[8*q:], uint64(c))
	}
	return c
}

// summarize fills mass and center-of-mass bottom-up.
func (w *world) summarize(p hoard.Ptr) (m, x, y float64) {
	b := w.t.Bytes(p, nodeSize)
	if bi := int64(binary.LittleEndian.Uint64(b[80:])); bi >= 0 {
		n := float64(binary.LittleEndian.Uint64(b[88:]))
		m = w.mass[bi] * n
		x, y = w.pos[bi][0], w.pos[bi][1]
	} else {
		var sx, sy float64
		for q := 0; q < 4; q++ {
			if c := hoard.Ptr(binary.LittleEndian.Uint64(b[8*q:])); !c.IsNil() {
				cm, cx, cy := w.summarize(c)
				m += cm
				sx += cm * cx
				sy += cm * cy
			}
		}
		if m > 0 {
			x, y = sx/m, sy/m
		}
	}
	w.putF64(b, 32, m)
	w.putF64(b, 40, x)
	w.putF64(b, 48, y)
	return m, x, y
}

func (w *world) force(p hoard.Ptr, bi int, theta float64, ax, ay *float64) {
	b := w.t.Bytes(p, nodeSize)
	if binary.LittleEndian.Uint64(b[88:]) == 0 {
		return
	}
	leaf := int64(binary.LittleEndian.Uint64(b[80:]))
	if leaf == int64(bi) {
		return
	}
	m, x, y := w.f64(b, 32), w.f64(b, 40), w.f64(b, 48)
	dx, dy := x-w.pos[bi][0], y-w.pos[bi][1]
	d2 := dx*dx + dy*dy
	half := w.f64(b, 72)
	if leaf >= 0 || (2*half)*(2*half) < theta*theta*d2 {
		d2 += 1e-6
		inv := 1 / (d2 * math.Sqrt(d2))
		*ax += m * dx * inv
		*ay += m * dy * inv
		return
	}
	for q := 0; q < 4; q++ {
		if c := hoard.Ptr(binary.LittleEndian.Uint64(b[8*q:])); !c.IsNil() {
			w.force(c, bi, theta, ax, ay)
		}
	}
}

func (w *world) freeTree(p hoard.Ptr) {
	b := w.t.Bytes(p, nodeSize)
	for q := 0; q < 4; q++ {
		if c := hoard.Ptr(binary.LittleEndian.Uint64(b[8*q:])); !c.IsNil() {
			w.freeTree(c)
		}
	}
	w.t.Free(p)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "barneshut:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("barneshut", flag.ContinueOnError)
	bodies := fs.Int("bodies", 4000, "body count")
	steps := fs.Int("steps", 4, "timesteps")
	workers := fs.Int("workers", 4, "worker goroutines")
	theta := fs.Float64("theta", 0.5, "opening angle")
	if err := fs.Parse(args); err != nil {
		return err
	}

	a, err := hoard.New(hoard.Config{Procs: *workers})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, a.Close()) }()
	n := *bodies
	pos := make([][2]float64, n)
	vel := make([][2]float64, n)
	mass := make([]float64, n)
	rng := rand.New(rand.NewSource(7))
	for i := range pos {
		pos[i] = [2]float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		mass[i] = 0.5 + rng.Float64()
	}

	start := time.Now()
	totalNodes := 0
	for step := 0; step < *steps; step++ {
		// Parallel build: each worker owns a slice of bodies and its
		// own partial tree; forces superpose across partial trees.
		roots := make([]hoard.Ptr, *workers)
		worlds := make([]*world, *workers)
		var wg sync.WaitGroup
		for wi := 0; wi < *workers; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				w := &world{t: a.NewThread(), pos: pos, vel: vel, mass: mass}
				worlds[wi] = w
				root := w.newNode(0, 0, 4)
				for bi := wi * n / *workers; bi < (wi+1)*n / *workers; bi++ {
					w.insert(root, bi)
				}
				w.summarize(root)
				roots[wi] = root
			}(wi)
		}
		wg.Wait()

		acc := make([][2]float64, n)
		for wi := 0; wi < *workers; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				w := worlds[wi]
				for bi := wi * n / *workers; bi < (wi+1)*n / *workers; bi++ {
					var ax, ay float64
					for _, r := range roots {
						w.force(r, bi, *theta, &ax, &ay)
					}
					acc[bi] = [2]float64{ax, ay}
				}
			}(wi)
		}
		wg.Wait()

		const dt = 1e-3
		for i := range pos {
			vel[i][0] += acc[i][0] * dt
			vel[i][1] += acc[i][1] * dt
			pos[i][0] += vel[i][0] * dt
			pos[i][1] += vel[i][1] * dt
		}
		for wi, w := range worlds {
			w.freeTree(roots[wi])
			w.t.Close()
			totalNodes += w.nodeAllocs
		}
	}
	elapsed := time.Since(start)

	var cx, cy, ke float64
	for i := range pos {
		cx += pos[i][0]
		cy += pos[i][1]
		ke += 0.5 * mass[i] * (vel[i][0]*vel[i][0] + vel[i][1]*vel[i][1])
	}
	st := a.Stats()
	fmt.Fprintf(out, "simulated %d bodies x %d steps with %d workers in %v\n",
		n, *steps, *workers, elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "centroid (%.4f, %.4f), kinetic energy %.6f\n", cx/float64(n), cy/float64(n), ke)
	fmt.Fprintf(out, "tree nodes allocated %d (freed every step); allocator: %d mallocs, %d frees, %d B live\n",
		totalNodes, st.Mallocs, st.Frees, st.LiveBytes)
	if st.LiveBytes != 0 {
		return fmt.Errorf("leak: %d bytes of tree nodes outlived their step", st.LiveBytes)
	}
	if err := a.CheckIntegrity(); err != nil {
		return err
	}
	fmt.Fprintln(out, "integrity check passed")
	return nil
}
