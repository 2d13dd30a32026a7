package loadgen

import (
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
)

// The smoke tests share one sisd-server binary, built on first use and
// removed when the test binary exits.
var serverBuild struct {
	once     sync.Once
	dir, bin string
	out      []byte
	err      error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if serverBuild.dir != "" {
		os.RemoveAll(serverBuild.dir)
	}
	os.Exit(code)
}

// sisdServerBin returns the path of the shared sisd-server build.
func sisdServerBin(t *testing.T) string {
	t.Helper()
	b := &serverBuild
	b.once.Do(func() {
		if b.dir, b.err = os.MkdirTemp("", "loadgen-server-"); b.err != nil {
			return
		}
		b.bin = filepath.Join(b.dir, "sisd-server")
		build := exec.Command("go", "build", "-o", b.bin, "./cmd/sisd-server")
		build.Dir = "../.."
		b.out, b.err = build.CombinedOutput()
	})
	if b.err != nil {
		t.Fatalf("building sisd-server: %v\n%s", b.err, b.out)
	}
	return b.bin
}
