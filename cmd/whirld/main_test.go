package main

import (
	"net"
	"strings"
	"testing"
)

// TestResolveWorkersIntegerDeprecated: the integer -workers N form (the
// old name for -parallel) is gone, so a number is just not a worker URL.
func TestResolveWorkersIntegerDeprecated(t *testing.T) {
	urls, err := resolveWorkers("12")
	if err == nil || !strings.Contains(err.Error(), "not a worker URL") {
		t.Fatalf("resolveWorkers(12) = %v, %v; want a not-a-worker-URL error", urls, err)
	}
	if urls != nil {
		t.Fatalf("rejected flag still yielded urls %v", urls)
	}
}

// TestResolveWorkersIntegerConflictsWithParallel: `-workers 8 -parallel 4`
// used to fail as a flag conflict; -parallel no longer enters into it, and
// the integer fails on its own, naming the value it refused.
func TestResolveWorkersIntegerConflictsWithParallel(t *testing.T) {
	_, err := resolveWorkers("8")
	if err == nil || !strings.Contains(err.Error(), "not a worker URL") ||
		!strings.Contains(err.Error(), "8") {
		t.Fatalf("resolveWorkers(8) err = %v, want a not-a-worker-URL error naming 8", err)
	}
}

func TestResolveWorkersURLs(t *testing.T) {
	urls, err := resolveWorkers("http://a:1, http://b:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(urls) != 2 || urls[0] != "http://a:1" {
		t.Fatalf("urls = %v", urls)
	}
	if _, err := resolveWorkers("not-a-url"); err == nil ||
		!strings.Contains(err.Error(), "not-a-url") {
		t.Fatalf("bad URL accepted: %v", err)
	}
	if urls, err := resolveWorkers(""); urls != nil || err != nil {
		t.Fatalf("empty flag: %v, %v", urls, err)
	}
}

type fakeAddr string

func (a fakeAddr) Network() string { return "tcp" }
func (a fakeAddr) String() string  { return string(a) }

func TestAdvertiseURL(t *testing.T) {
	cases := map[string]string{
		"127.0.0.1:8080": "http://127.0.0.1:8080",
		"10.0.0.5:9000":  "http://10.0.0.5:9000",
		"0.0.0.0:8080":   "http://127.0.0.1:8080",
		"[::]:8080":      "http://127.0.0.1:8080",
		"weird":          "http://weird",
	}
	for in, want := range cases {
		if got := advertiseURL(net.Addr(fakeAddr(in))); got != want {
			t.Errorf("advertiseURL(%q) = %q, want %q", in, got, want)
		}
	}
}
