package main

import (
	"fmt"
	"io"
	"os"

	"gps/internal/obs"
)

// lintExposition validates a Prometheus text exposition file with the
// in-repo checker (gps-bench -lint FILE; "-" reads stdin). The smoke scripts
// use it to validate a live scrape without any external tooling.
func lintExposition(path string, stdout io.Writer) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	fams, samples, err := obs.CheckExposition(r)
	if err != nil {
		return fmt.Errorf("lint %s: %w", path, err)
	}
	fmt.Fprintf(stdout, "%s: valid exposition, %d families, %d samples\n", path, fams, samples)
	return nil
}
