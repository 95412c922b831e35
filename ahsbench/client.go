package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// keyHeader tags traced requests with their scenario hash so the
// benchmark's HTTP wrapper can key the request span; the server ignores it.
const keyHeader = "X-Ahsbench-Key"

// client is the load generator's single loopback connection: one
// keep-alive connection, reused by every request in a closed loop. Every
// request carries ctx, so an interrupted run stops mid-stream.
type client struct {
	ctx    context.Context
	base   string
	http   *http.Client
	tagged bool // send keyHeader (traced runs only)
}

func newClient(ctx context.Context, base string, tagged bool) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{ctx: ctx, base: base, http: &http.Client{Transport: tr}, tagged: tagged}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// httpError is a non-2xx answer.
type httpError struct {
	method, path string
	code         int
	body         string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("%s %s: HTTP %d: %s", e.method, e.path, e.code, strings.TrimSpace(e.body))
}

// do sends one request and returns the whole body of a 2xx answer.
func (c *client) do(method, path, key string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(c.ctx, method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.tagged && key != "" {
		req.Header.Set(keyHeader, key)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return b, resp.StatusCode, &httpError{method, path, resp.StatusCode, string(b)}
	}
	return b, resp.StatusCode, nil
}

// getJSON decodes a 2xx GET answer into v.
func (c *client) getJSON(path string, v any) error {
	b, _, err := c.do(http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// postJSON sends v and decodes a 2xx answer into out.
func (c *client) postJSON(path string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b, _, err := c.do(http.MethodPost, path, "", body)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, out)
}

// metrics scrapes GET /metrics.
func (c *client) metrics() (scrape, error) {
	b, _, err := c.do(http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	return parseScrape(bytes.NewReader(b))
}

// awaitEvent follows an SSE stream until an event named final arrives and
// returns its data together with the time it was read. This is how
// ahs-sweep -server learns that a sweep finished.
func (c *client) awaitEvent(path, final string) ([]byte, time.Time, error) {
	req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, time.Time{}, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, time.Time{}, &httpError{http.MethodGet, path, resp.StatusCode, string(b)}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == final:
			at := time.Now()
			data := []byte(strings.TrimPrefix(line, "data: "))
			_, _ = io.Copy(io.Discard, resp.Body)
			return data, at, nil
		case line == "":
			event = ""
		}
	}
	if err := sc.Err(); err != nil {
		return nil, time.Time{}, fmt.Errorf("stream %s: %w", path, err)
	}
	return nil, time.Time{}, fmt.Errorf("stream %s ended without a %q event", path, final)
}
