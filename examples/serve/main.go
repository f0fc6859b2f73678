// Serve: a runnable client of the live sampling service. It boots a
// gps-serve instance in-process on a loopback listener, streams a
// heavy-tailed R-MAT graph into it over HTTP in binary frames, and — while
// ingestion is still running — queries triangle estimates from
// staleness-bounded snapshots, exactly as an external client would with
// curl. At the end it forces a fresh snapshot and compares against the
// exact count.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"gps/internal/exact"
	"gps/internal/gen"
	"gps/internal/graph"
	"gps/internal/serve"
	"gps/internal/stream"
)

func main() {
	edges := stream.Collect(stream.Permute(gen.RMAT(14, 8, 0.57, 0.19, 0.19, 7), 8))
	const sample = 8000

	srv, err := serve.NewServer(serve.Config{
		Capacity:     sample,
		WeightName:   "triangle",
		Seed:         3,
		Shards:       4,
		MaxStaleness: 50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fmt.Printf("service on %s — stream of %d edges, reservoir %d (%.2f%%)\n\n",
		ts.URL, len(edges), sample, 100*float64(sample)/float64(len(edges)))
	fmt.Println("  ingested     triangles(exact)   estimate(served)   snapshot-age")

	counter := exact.NewStreamingCounter()
	const batch = 4096
	for lo := 0; lo < len(edges); lo += batch {
		hi := min(lo+batch, len(edges))
		for _, e := range edges[lo:hi] {
			counter.Add(e)
		}
		post(ts.URL+"/v1/ingest", stream.BinaryContentType, encodeBinary(edges[lo:hi]))
		// Query while ingestion is in flight: the served estimate may lag
		// by up to the staleness bound — that lag is the price of never
		// stalling ingestion for a query.
		if (lo/batch)%8 == 7 || hi == len(edges) {
			post(ts.URL+"/v1/flush", "", nil)
			est := getEstimate(ts.URL + "/v1/estimate")
			fmt.Printf("%10d  %17d  %17.0f  %11.1fms\n",
				hi, counter.Triangles(), est.Triangles, est.SnapshotAgeMS)
		}
	}

	fresh := getEstimate(ts.URL + "/v1/estimate?max_stale=0s")
	fmt.Printf("\nfinal fresh snapshot: %.0f triangles estimated vs %d exact (%.2f%% error), %d edges sampled of %d\n",
		fresh.Triangles, counter.Triangles(),
		100*abs(fresh.Triangles-float64(counter.Triangles()))/float64(counter.Triangles()),
		fresh.SampledEdges, fresh.Arrivals)

	// The same service answers arbitrary subgraph queries: the
	// Horvitz-Thompson estimate of one specific edge's presence.
	e := edges[0]
	resp, err := http.Post(ts.URL+"/v1/estimate/subgraph", "application/json",
		bytes.NewBufferString(fmt.Sprintf(`{"edges": [[%d,%d]]}`, e.U, e.V)))
	if err != nil {
		log.Fatal(err)
	}
	var sub struct {
		Estimate float64 `json:"estimate"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("subgraph query for edge %v: HT estimate %.2f (0 = not sampled, ≥1 = sampled at prob 1/est)\n",
		e, sub.Estimate)
}

type estimateResponse struct {
	Triangles     float64 `json:"triangles"`
	SampledEdges  int     `json:"sampled_edges"`
	Arrivals      uint64  `json:"arrivals"`
	SnapshotAgeMS float64 `json:"snapshot_age_ms"`
}

func encodeBinary(edges []graph.Edge) *bytes.Buffer {
	var buf bytes.Buffer
	if err := stream.WriteBinary(&buf, edges); err != nil {
		log.Fatal(err)
	}
	return &buf
}

func post(url, contentType string, body io.Reader) {
	resp, err := http.Post(url, contentType, body)
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode >= 400 {
		log.Fatalf("%s: HTTP %d", url, resp.StatusCode)
	}
}

func getEstimate(url string) estimateResponse {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var est estimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&est); err != nil {
		log.Fatal(err)
	}
	return est
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
