package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpcquery/internal/service"
)

func postQuery(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, m
}

func TestDemoServiceEndToEnd(t *testing.T) {
	svc, err := buildService(service.Config{P: 4}, "", true, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Relations(); len(got) != 5 {
		t.Fatalf("demo relations %v", got)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	code, m := postQuery(t, srv.URL, `{"tenant":"t1","query":"q(x, y, z) :- R(x, y), S(y, z)."}`)
	if code != 200 || m["kind"] != "join" {
		t.Fatalf("join: %d %v", code, m)
	}
	code, m = postQuery(t, srv.URL, `{"query":"reach(x) :- V(x).\nreach(y) :- reach(x), E(x, y)."}`)
	if code != 200 || m["kind"] != "recursive" {
		t.Fatalf("recursive: %d %v", code, m)
	}
	code, m = postQuery(t, srv.URL, `{"query":"spend(x, sum(y)) :- R(x, y)."}`)
	if code != 200 || m["kind"] != "aggregate" {
		t.Fatalf("aggregate: %d %v", code, m)
	}
	code, m = postQuery(t, srv.URL, `{"query":"q(x) :- Nope(x)"}`)
	if code != 400 || !strings.Contains(m["error"].(string), "unknown relation") {
		t.Fatalf("unknown relation: %d %v", code, m)
	}
}

func TestBuildServiceCSV(t *testing.T) {
	dir := t.TempDir()
	// The repeated 1,2 row is dropped at load, so the path join below
	// has one answer whichever algorithm runs it.
	if err := os.WriteFile(filepath.Join(dir, "Edge.csv"), []byte("s,d\n1,2\n2,3\n1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := buildService(service.Config{P: 2}, dir, false, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	code, m := postQuery(t, srv.URL, `{"query":"tc(x, y) :- Edge(x, y).\ntc(x, z) :- tc(x, y), Edge(y, z)."}`)
	if code != 200 || m["rows"].(float64) != 3 {
		t.Fatalf("csv tc: %d %v", code, m)
	}
	code, m = postQuery(t, srv.URL, `{"query":"q(x, y, z) :- Edge(x, y), Edge(y, z)."}`)
	if code != 200 || m["rows"].(float64) != 1 {
		t.Fatalf("csv path join over a repeated row: %d %v", code, m)
	}
}

func TestBuildServiceCSVRepeatedHeader(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "Bad.csv"), []byte("a,a\n1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := buildService(service.Config{P: 2}, dir, false, 0, 1); err == nil || !strings.Contains(err.Error(), `"a"`) {
		t.Fatalf("repeated CSV header column: error %v, want one naming \"a\"", err)
	}
}

func TestBuildServiceRequiresData(t *testing.T) {
	if _, err := buildService(service.Config{}, "", false, 0, 1); err == nil {
		t.Fatal("expected error without -data or -demo")
	}
}
