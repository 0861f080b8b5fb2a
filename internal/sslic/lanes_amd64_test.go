package sslic

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestAVX2Detected fails when Linux lists avx2 among the CPU's flags but
// the package chose the Go row kernel. A broken CPUID check would
// otherwise leave every test and benchmark on the fallback, all passing.
func TestAVX2Detected(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads the CPU flags from /proc/cpuinfo")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		if slices.Contains(strings.Fields(flags), "avx2") && !useAVX2 {
			t.Fatal("the CPU flags list avx2, but the package runs the Go row kernel")
		}
		return
	}
	t.Skip("/proc/cpuinfo lists no flags")
}
