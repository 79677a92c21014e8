package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/server"
)

// The HTTP side of the load generator. Each client owns one transport
// with one keep-alive connection per server, so a run with c clients holds
// at most c connections to any server.

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// timing is the client-side clock of one request.
type timing struct {
	Latency time.Duration // request start to the last byte (the trailer, on a stream)
	First   time.Duration // request start to the first answer frame (rows, or the trailer when there are none); response headers for plans
}

func post(c *http.Client, method, url, ctype string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ctype)
	return c.Do(req)
}

func doPlan(c *http.Client, base string, o op) (planResult, timing, error) {
	body, err := json.Marshal(server.PlanRequest{Tenant: o.Tenant, Query: o.Query, K: o.K})
	if err != nil {
		return planResult{}, timing{}, err
	}
	start := time.Now()
	resp, err := post(c, http.MethodPost, base+"/v1/plan", "application/json", body)
	if err != nil {
		return planResult{}, timing{}, err
	}
	first := time.Since(start)
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t := timing{Latency: time.Since(start), First: first}
	if err != nil {
		return planResult{}, t, err
	}
	res := planResult{Status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		var pr struct {
			Width         int             `json:"width"`
			EstimatedCost float64         `json:"estimatedCost"`
			Plan          json.RawMessage `json:"plan"`
		}
		if err := json.Unmarshal(raw, &pr); err != nil {
			return res, t, fmt.Errorf("plan response: %w", err)
		}
		res.Width, res.Cost, res.Plan = pr.Width, pr.EstimatedCost, pr.Plan
	}
	return res, t, nil
}

var rowsPrefix = []byte(`{"frame":"rows","rows":[`)

// doExec streams one /v2/execute answer, folding rows into the digest as
// they arrive.
func doExec(c *http.Client, base string, o op) (execResult, timing, error) {
	body, err := json.Marshal(server.ExecuteRequest{Tenant: o.Tenant, Query: o.Query, K: o.K})
	if err != nil {
		return execResult{}, timing{}, err
	}
	start := time.Now()
	resp, err := post(c, http.MethodPost, base+"/v2/execute", "application/json", body)
	if err != nil {
		return execResult{}, timing{}, err
	}
	defer resp.Body.Close()
	res := execResult{Status: resp.StatusCode}
	var t timing
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		t.Latency = time.Since(start)
		t.First = t.Latency
		return res, t, nil
	}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	sawHeader := false
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			// A frame larger than the buffer: collect it whole.
			rest, rerr := br.ReadBytes('\n')
			line = append(append([]byte(nil), line...), rest...)
			err = rerr
		}
		if len(line) == 0 && err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return res, t, err
		}
		switch {
		case bytes.HasPrefix(line, rowsPrefix):
			if t.First == 0 {
				t.First = time.Since(start)
			}
			if perr := foldRows(line[len(rowsPrefix):], &res.Got); perr != nil {
				res.Truncated = true
			}
		case !sawHeader:
			var h server.ExecStreamHeader
			if jerr := json.Unmarshal(line, &h); jerr != nil || h.Frame != "header" {
				res.Truncated = true
				break
			}
			sawHeader = true
			res.Version = h.CatalogVersion
		default:
			var tr server.ExecStreamTrailer
			if jerr := json.Unmarshal(line, &tr); jerr != nil || tr.Frame != "trailer" {
				res.Truncated = true
				break
			}
			if t.First == 0 {
				t.First = time.Since(start)
			}
			res.Trailer, res.RowCount, res.Boolean = tr.Status, tr.RowCount, tr.Boolean
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return res, t, err
		}
	}
	t.Latency = time.Since(start)
	if !sawHeader {
		res.Truncated = true
	}
	return res, t, nil
}

// foldRows parses the rest of a rows frame — `[1,2],[3,4]]}` — straight
// into the digest, without building a JSON tree.
func foldRows(b []byte, sum *rowsSum) error {
	var row []int32
	i := 0
	for i < len(b) {
		switch b[i] {
		case '[':
			row = row[:0]
			i++
			for i < len(b) && b[i] != ']' {
				if b[i] == ',' {
					i++
					continue
				}
				neg := false
				if b[i] == '-' {
					neg = true
					i++
				}
				var v int64
				start := i
				for i < len(b) && b[i] >= '0' && b[i] <= '9' {
					v = v*10 + int64(b[i]-'0')
					i++
				}
				if i == start {
					return fmt.Errorf("bad row value at byte %d", i)
				}
				if neg {
					v = -v
				}
				row = append(row, int32(v))
			}
			if i == len(b) {
				return fmt.Errorf("unterminated row")
			}
			i++
			sum.add(row)
		case ',':
			i++
		case ']':
			return nil
		default:
			return fmt.Errorf("unexpected byte %q in rows frame", b[i])
		}
	}
	return fmt.Errorf("unterminated rows frame")
}

func doPatch(c *http.Client, base string, o op) (patchResult, time.Duration, error) {
	start := time.Now()
	resp, err := post(c, http.MethodPatch, base+"/v1/catalogs/"+o.Tenant, "text/plain", []byte(o.Body))
	if err != nil {
		return patchResult{}, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err != nil {
		return patchResult{}, d, err
	}
	res := patchResult{Status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		var pr server.CatalogDeltaResponse
		if err := json.Unmarshal(raw, &pr); err != nil {
			return res, d, fmt.Errorf("patch response: %w", err)
		}
		res.Base, res.Version = pr.BaseVersion, pr.Version
	}
	return res, d, nil
}

// putCatalog uploads a tenant catalog and returns its version.
func putCatalog(c *http.Client, base string, tc tenantCatalog) (uint64, error) {
	resp, err := post(c, http.MethodPut, base+"/v1/catalogs/"+tc.Tenant, "text/plain", tc.text)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("PUT catalog %s: status %d: %s", tc.Tenant, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var cr server.CatalogResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		return 0, err
	}
	return cr.Version, nil
}

func getStats(c *http.Client, base string) (server.StatsResponse, error) {
	var st server.StatsResponse
	resp, err := c.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
