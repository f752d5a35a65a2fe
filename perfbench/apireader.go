package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// apiReader is the open-loop API client: over one loopback HTTP
// connection it GETs the fleet summary and fleet health, alternating,
// on a fixed schedule regardless of how fast answers come back. Each
// request is timed from when it was due, so a stall also delays every
// request queued behind it.
type apiReader struct {
	srv    *http.Server
	client *http.Client
	base   string
	served chan error
	tr     *tracer

	stop chan struct{}
	wg   sync.WaitGroup

	// Written by the reader goroutine only; read after stop returns.
	latency, lag      []float64
	perPath           map[string][]float64
	attempted, failed int
	firstErr          error
}

// apiRate is the reader's request rate (requests per second).
const apiRate = 20

var apiPaths = [...]string{"/v1/fleet/summary", "/v1/fleet/health"}

// startAPI serves h on a loopback port chosen by the kernel and starts
// the open-loop reader against it.
func startAPI(h http.Handler, tr *tracer) (*apiReader, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("api listen: %w", err)
	}
	a := &apiReader{
		srv: &http.Server{Handler: h},
		client: &http.Client{
			Timeout: 2 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
		base:    "http://" + ln.Addr().String(),
		served:  make(chan error, 1),
		tr:      tr,
		stop:    make(chan struct{}),
		perPath: make(map[string][]float64),
	}
	go func() { a.served <- a.srv.Serve(ln) }()
	a.wg.Add(1)
	go a.run()
	return a, nil
}

func (a *apiReader) run() {
	defer a.wg.Done()
	start := time.Now()
	period := time.Second / apiRate
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			select {
			case <-a.stop:
				return
			case <-time.After(d):
			}
		} else {
			select {
			case <-a.stop:
				return
			default:
			}
		}
		path := apiPaths[i%len(apiPaths)]
		sent := time.Now()
		h := a.tr.begin("api.get", -1, uint64(i))
		err := a.get(path)
		a.tr.end(h)
		done := time.Now()
		a.attempted++
		if err != nil {
			a.failed++
			if a.firstErr == nil {
				a.firstErr = err
			}
			continue
		}
		a.latency = append(a.latency, ms(done.Sub(due)))
		a.lag = append(a.lag, ms(sent.Sub(due)))
		a.perPath[path] = append(a.perPath[path], ms(done.Sub(sent)))
	}
}

func (a *apiReader) get(path string) error {
	resp, err := a.client.Get(a.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return nil
}

// finish stops the reader, shuts the server down, and folds the
// samples and failure counts into rec.
func (a *apiReader) finish(rec *recorder) error {
	close(a.stop)
	a.wg.Wait()
	a.client.CloseIdleConnections()
	cerr := a.srv.Close()
	if err := <-a.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("api serve: %w", err)
	}
	rec.series["api_ms"] = a.latency
	rec.series["api.lag_ms"] = a.lag
	rec.series["api.summary_ms"] = a.perPath[apiPaths[0]]
	rec.series["api.health_ms"] = a.perPath[apiPaths[1]]
	rec.attempt("api_requests", a.attempted)
	rec.fail("api_requests", a.failed)
	if a.firstErr != nil {
		fmt.Printf("api: first failure: %v\n", a.firstErr)
	}
	return cerr
}
