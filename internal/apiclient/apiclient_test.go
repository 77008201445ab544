package apiclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func newClient(t *testing.T, h http.Handler) *Client {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadBases(t *testing.T) {
	for _, base := range []string{"", "   ", "localhost:8080", "ftp://x"} {
		if _, err := New(base, nil); err == nil {
			t.Errorf("New(%q) succeeded, want error", base)
		}
	}
	c, err := New("http://x:1/", nil)
	if err != nil || c.Base() != "http://x:1" {
		t.Fatalf("New trailing slash: base %q, err %v", c.Base(), err)
	}
}

// TestErrorEnvelope: the envelope decodes into code+message, and
// non-envelope bodies (a proxy's plain text) fall back to raw text —
// never a decode failure.
func TestErrorEnvelope(t *testing.T) {
	cases := []struct {
		name, body  string
		status      int
		retryAfter  string
		wantCode    string
		wantMessage string
		wantRetry   time.Duration
		temporary   bool
	}{
		{
			name: "envelope", status: 400,
			body:     `{"error":{"code":"bad_request","message":"scale must be >= 0"}}`,
			wantCode: "bad_request", wantMessage: "scale must be >= 0",
		},
		{
			name: "envelope with retry-after", status: 503, retryAfter: "2",
			body:     `{"error":{"code":"queue_full","message":"job queue is full"}}`,
			wantCode: "queue_full", wantMessage: "job queue is full",
			wantRetry: 2 * time.Second, temporary: true,
		},
		{
			name: "shed 429", status: 429, retryAfter: "1",
			body:     `{"error":{"code":"overloaded","message":"results concurrency limit"}}`,
			wantCode: "overloaded", wantMessage: "results concurrency limit",
			wantRetry: time.Second, temporary: true,
		},
		{
			name: "plain text body", status: 500,
			body:        "internal chaos\n",
			wantMessage: "internal chaos",
		},
		{
			name: "empty body", status: 502,
			wantMessage: "Bad Gateway",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.retryAfter != "" {
					w.Header().Set("Retry-After", tc.retryAfter)
				}
				w.WriteHeader(tc.status)
				io.WriteString(w, tc.body)
			}))
			err := c.GetJSON(context.Background(), "/v1/jobs/j9", &struct{}{})
			var ae *Error
			if !errors.As(err, &ae) {
				t.Fatalf("error %v is not *Error", err)
			}
			if ae.Status != tc.status || ae.Code != tc.wantCode || ae.Message != tc.wantMessage {
				t.Fatalf("got %+v, want status %d code %q message %q", ae, tc.status, tc.wantCode, tc.wantMessage)
			}
			if ae.RetryAfter != tc.wantRetry {
				t.Fatalf("RetryAfter = %v, want %v", ae.RetryAfter, tc.wantRetry)
			}
			if ae.Temporary() != tc.temporary {
				t.Fatalf("Temporary() = %v, want %v", ae.Temporary(), tc.temporary)
			}
			if ErrorStatus(err) != tc.status {
				t.Fatalf("ErrorStatus = %d, want %d", ErrorStatus(err), tc.status)
			}
		})
	}
	if ErrorStatus(errors.New("plain")) != 0 {
		t.Fatal("ErrorStatus of a non-API error should be 0")
	}
}

func TestPostJSONRoundTrip(t *testing.T) {
	c := newClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.Header.Get("Content-Type") != "application/json" {
			t.Errorf("got %s with Content-Type %q", r.Method, r.Header.Get("Content-Type"))
		}
		var in map[string]any
		if err := readJSON(r.Body, &in); err != nil {
			t.Errorf("body: %v", err)
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"j1","echo":%q}`, in["app"])
	}))
	var out struct {
		ID   string `json:"id"`
		Echo string `json:"echo"`
	}
	err := c.PostJSON(context.Background(), "/v1/sweeps", map[string]string{"app": "delaunay"}, &out)
	if err != nil || out.ID != "j1" || out.Echo != "delaunay" {
		t.Fatalf("out %+v, err %v", out, err)
	}
}

func readJSON(r io.Reader, out any) error {
	return json.NewDecoder(r).Decode(out)
}

// TestStream parses id/event/data framing, multi-line data, and EOF.
func TestStream(t *testing.T) {
	c := newClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, "id: 1\nevent: row\ndata: {\"app\":\"delaunay\"}\n\n")
		io.WriteString(w, "event: note\ndata: line1\ndata: line2\n\n")
		io.WriteString(w, "event: done\ndata: {}\n\n")
	}))
	st, err := c.Stream(context.Background(), "/v1/jobs/j1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ev, err := st.Next()
	if err != nil || ev.ID != 1 || ev.Name != "row" || string(ev.Data) != `{"app":"delaunay"}` {
		t.Fatalf("event 1 = %+v, err %v", ev, err)
	}
	ev, err = st.Next()
	if err != nil || ev.Name != "note" || string(ev.Data) != "line1\nline2" {
		t.Fatalf("event 2 = %+v, err %v", ev, err)
	}
	ev, err = st.Next()
	if err != nil || ev.Name != "done" {
		t.Fatalf("event 3 = %+v, err %v", ev, err)
	}
	if _, err = st.Next(); err != io.EOF {
		t.Fatalf("after last event: %v, want io.EOF", err)
	}
}

// TestStreamError: a non-200 on the stream endpoint decodes the
// envelope like any other call.
func TestStreamError(t *testing.T) {
	c := newClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		io.WriteString(w, `{"error":{"code":"not_found","message":"no such job"}}`)
	}))
	_, err := c.Stream(context.Background(), "/v1/jobs/nope/stream")
	var ae *Error
	if !errors.As(err, &ae) || ae.Code != "not_found" || ae.Status != 404 {
		t.Fatalf("stream error = %v", err)
	}
}

func TestDoNilOutDrainsBody(t *testing.T) {
	c := newClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"ok":true}`)
	}))
	if err := c.Do(context.Background(), http.MethodGet, "/healthz", nil, nil); err != nil {
		t.Fatal(err)
	}
}
