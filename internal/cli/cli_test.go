package cli

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWorkers(t *testing.T) {
	for _, tc := range []struct {
		in      int
		want    int
		wantErr bool
	}{
		{in: -1, wantErr: true},
		{in: -100, wantErr: true},
		{in: 0, want: 0},
		{in: 1, want: 1},
		{in: 64, want: 64},
	} {
		got, err := Workers(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("Workers(%d): want error, got %d", tc.in, got)
			} else if !strings.Contains(err.Error(), "-workers") {
				t.Errorf("Workers(%d) error %q does not name the flag", tc.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Workers(%d): unexpected error %v", tc.in, err)
		} else if got != tc.want {
			t.Errorf("Workers(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestListen(t *testing.T) {
	for _, tc := range []struct {
		in      string
		wantErr bool
	}{
		{in: "", wantErr: true},
		{in: "localhost", wantErr: true}, // no port
		{in: "8080", wantErr: true},      // bare port, not host:port
		{in: "host:port:extra", wantErr: true},
		{in: "localhost:8080"},
		{in: ":0"}, // all interfaces, kernel-assigned port
		{in: "127.0.0.1:9090"},
		{in: "[::1]:8080"},
	} {
		got, err := Listen(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("Listen(%q): want error, got %q", tc.in, got)
			} else if !strings.Contains(err.Error(), "-listen") {
				t.Errorf("Listen(%q) error %q does not name the flag", tc.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Listen(%q): unexpected error %v", tc.in, err)
		} else if got != tc.in {
			t.Errorf("Listen(%q) = %q, want it unchanged", tc.in, got)
		}
	}
}

func TestShards(t *testing.T) {
	for _, tc := range []struct {
		in      int
		want    int
		wantErr bool
	}{
		{in: -1, wantErr: true},
		{in: -8, wantErr: true},
		{in: 0, want: 0},
		{in: 1, want: 1},
		{in: 16, want: 16},
	} {
		got, err := Shards(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("Shards(%d): want error, got %d", tc.in, got)
			} else if !strings.Contains(err.Error(), "-shards") {
				t.Errorf("Shards(%d) error %q does not name the flag", tc.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Shards(%d): unexpected error %v", tc.in, err)
		} else if got != tc.want {
			t.Errorf("Shards(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestMaxSessions(t *testing.T) {
	for _, tc := range []struct {
		in      int
		want    int
		wantErr bool
	}{
		{in: -1, wantErr: true},
		{in: -65536, wantErr: true},
		{in: 0, want: 0},
		{in: 2, want: 2},
		{in: 65536, want: 65536},
	} {
		got, err := MaxSessions(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("MaxSessions(%d): want error, got %d", tc.in, got)
			} else if !strings.Contains(err.Error(), "-max-sessions") {
				t.Errorf("MaxSessions(%d) error %q does not name the flag", tc.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("MaxSessions(%d): unexpected error %v", tc.in, err)
		} else if got != tc.want {
			t.Errorf("MaxSessions(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestWorkersFlagParsing exercises the exact shape the binaries use: a
// -workers int flag parsed from argv and validated through Workers.
func TestWorkersFlagParsing(t *testing.T) {
	parse := func(args ...string) (int, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		workers := fs.Int("workers", 0, "")
		if err := fs.Parse(args); err != nil {
			return 0, err
		}
		return Workers(*workers)
	}
	if _, err := parse("-workers=-3"); err == nil {
		t.Fatal("negative -workers accepted")
	}
	if w, err := parse(); err != nil || w != 0 {
		t.Fatalf("default -workers: got %d, %v", w, err)
	}
	if w, err := parse("-workers=8"); err != nil || w != 8 {
		t.Fatalf("-workers=8: got %d, %v", w, err)
	}
}

func TestObservabilityDefaultsAreOff(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := RegisterObservability(fs, true)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	addr, err := o.Start()
	if err != nil {
		t.Fatalf("Start with defaults: %v", err)
	}
	if addr != "" {
		t.Fatalf("Start with defaults bound %q, want no server", addr)
	}
	if o.Events() != nil {
		t.Fatal("Events non-nil without -events")
	}
	o.Close() // must be safe with nothing opened
}

func TestObservabilityStartServesAndLogs(t *testing.T) {
	events := filepath.Join(t.TempDir(), "events.jsonl")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := RegisterObservability(fs, true)
	if err := fs.Parse([]string{"-metrics-addr", "127.0.0.1:0", "-events", events}); err != nil {
		t.Fatal(err)
	}
	addr, err := o.Start()
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		t.Fatal("no bound address for -metrics-addr 127.0.0.1:0")
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}

	o.Events().Emit("test", "k", "v")
	o.Close()
	f, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		t.Fatal("event log empty after Emit")
	}
	var line map[string]any
	if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
		t.Fatalf("event line not JSON: %v", err)
	}
	if line["event"] != "test" {
		t.Fatalf("event name %v, want test", line["event"])
	}
}
