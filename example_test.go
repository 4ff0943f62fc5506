package hoard_test

import (
	"fmt"
	"strings"
	"sync"

	hoard "hoardgo"
)

// The basic lifecycle: build an allocator, register a thread, allocate,
// use the memory, free.
func Example() {
	a := hoard.MustNew(hoard.Config{})
	t := a.NewThread()

	p := t.Malloc(100)
	copy(t.Bytes(p, 100), "hello, hoard")
	fmt.Println(string(t.Bytes(p, 12)))
	t.Free(p)

	st := a.Stats()
	fmt.Println(st.Mallocs, st.Frees, st.LiveBytes)
	// Output:
	// hello, hoard
	// 1 1 0
}

// Cross-thread frees — the pattern Hoard exists to make safe and bounded:
// one goroutine allocates, another frees, and memory does not accumulate.
func Example_producerConsumer() {
	a := hoard.MustNew(hoard.Config{Procs: 2})
	ch := make(chan hoard.Ptr, 64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		consumer := a.NewThread()
		for p := range ch {
			consumer.Free(p)
		}
	}()
	producer := a.NewThread()
	for round := 0; round < 100; round++ {
		for i := 0; i < 100; i++ {
			ch <- producer.Malloc(64)
		}
	}
	close(ch)
	wg.Wait()
	fmt.Println("live bytes:", a.Stats().LiveBytes)
	// Output:
	// live bytes: 0
}

// Comparing allocator policies on the same workload: the baselines from
// the paper's taxonomy are available behind the same API.
func Example_policies() {
	for _, policy := range []hoard.Policy{hoard.PolicyHoard, hoard.PolicySerial} {
		a := hoard.MustNew(hoard.Config{Policy: policy})
		t := a.NewThread()
		p := t.Malloc(256)
		t.Free(p)
		fmt.Println(a.Policy(), a.Stats().Mallocs)
	}
	// Output:
	// hoard 1
	// serial 1
}

// Aligned allocation for structures with placement requirements.
func ExampleThread_MallocAligned() {
	a := hoard.MustNew(hoard.Config{})
	t := a.NewThread()
	p := t.MallocAligned(100, 4096)
	fmt.Println(uint64(p)%4096 == 0)
	t.Free(p)
	// Output:
	// true
}

// Realloc grows a block while preserving its contents.
func ExampleThread_Realloc() {
	a := hoard.MustNew(hoard.Config{})
	t := a.NewThread()
	p := t.Malloc(16)
	copy(t.Bytes(p, 4), "abcd")
	p = t.Realloc(p, 100000) // move to the large-object path
	fmt.Println(string(t.Bytes(p, 4)))
	t.Free(p)
	// Output:
	// abcd
}

// Memory debugging: Config{Debug: true} wraps the allocator with canaries,
// poisoning and a free quarantine. Three classic heap crimes are each
// caught at the offending call; a clean program passes untouched.
func Example_debug() {
	catch := func(crime string, f func()) {
		defer func() {
			msg := fmt.Sprint(recover())
			// Keep the cause; drop the block address and the details.
			if i := strings.IndexAny(msg, "(0"); i > 0 {
				msg = strings.TrimSpace(msg[:i])
			}
			fmt.Printf("%-16s caught: %s\n", crime, msg)
		}()
		f()
	}

	// A view one byte past the requested size is refused.
	catch("buffer overflow", func() {
		a := hoard.MustNew(hoard.Config{Debug: true})
		defer a.Close()
		t := a.NewThread()
		p := t.Malloc(32)
		t.Bytes(p, 33)[32] = 0xFF
	})
	catch("double free", func() {
		a := hoard.MustNew(hoard.Config{Debug: true})
		defer a.Close()
		t := a.NewThread()
		p := t.Malloc(64)
		t.Free(p)
		t.Free(p)
	})
	// The freed block is poisoned and quarantined; the scribble is found
	// when the block leaves quarantine.
	catch("use after free", func() {
		a := hoard.MustNew(hoard.Config{Debug: true, DebugQuarantine: 4})
		defer a.Close()
		t := a.NewThread()
		p := t.Malloc(64)
		buf := t.Bytes(p, 64)
		t.Free(p)
		buf[10] = 0x42
		for i := 0; i < 8; i++ {
			t.Free(t.Malloc(64))
		}
	})

	a := hoard.MustNew(hoard.Config{Debug: true})
	defer a.Close()
	t := a.NewThread()
	ps := make([]hoard.Ptr, 1000)
	for i := range ps {
		ps[i] = t.Malloc(1 + i%200)
		t.Bytes(ps[i], 1)[0] = byte(i)
	}
	for _, p := range ps {
		t.Free(p)
	}
	fmt.Println("clean program:", a.CheckIntegrity(), a.Stats().LiveBytes)
	// Output:
	// buffer overflow  caught: debugalloc: Bytes
	// double free      caught: debugalloc: free of unknown or already-freed pointer
	// use after free   caught: debugalloc: use-after-free write on block
	// clean program: <nil> 0
}
