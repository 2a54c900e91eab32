package main

import (
	"os"
	"strings"
	"testing"

	"github.com/hotindex/hot/internal/server"
)

// TestShutdownLineFixture pins the line hot-server prints as it stops: an
// idle in-memory leader's every STATS row, in table order
// (testdata/shutdown-line.txt).
func TestShutdownLineFixture(t *testing.T) {
	s, err := server.New(server.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want, err := os.ReadFile("testdata/shutdown-line.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := shutdownLine(s.Stats()); got != strings.TrimSuffix(string(want), "\n") {
		t.Fatalf("shutdown line\n%s\nwant\n%s", got, want)
	}
}
