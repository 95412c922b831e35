package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"ahs/internal/resultstore"
	"ahs/internal/service"
	"ahs/internal/sweep"
)

// prefill evaluates every point of the hot-reads design in-process and
// writes the results into a fresh store at dir: the store image each
// server of the run starts from, as a copy. This is data preparation, not
// set-up.
func prefill(ctx context.Context, design *sweep.Design, dir string) ([]*service.Result, error) {
	results := make([]*service.Result, len(design.Points))
	procs := runtime.GOMAXPROCS(0)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(results); i += procs {
				res, err := service.Evaluate(ctx, design.Points[i].Scenario, 1, nil)
				if err != nil {
					errs[g] = fmt.Errorf("prefill %s: %w", design.Points[i].Label, err)
					return
				}
				results[i] = res
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	st, err := resultstore.Open(resultstore.Config{Dir: dir, NoSync: true})
	if err != nil {
		return nil, err
	}
	for i, p := range design.Points {
		if err := st.Put(p.Hash, results[i]); err != nil {
			st.Close()
			return nil, err
		}
	}
	if err := st.Sync(); err != nil {
		st.Close()
		return nil, err
	}
	return results, st.Close()
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
