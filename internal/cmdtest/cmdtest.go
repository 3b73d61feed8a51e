// Package cmdtest is the shared harness of the command tests: it builds
// the command under test and checks how each bad invocation fails.
package cmdtest

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Case is one bad invocation and the exit status it must end with.
// Line, when set, is the one stderr line it must print.
type Case struct {
	Name string
	Args []string
	Exit int
	Line string
}

// Build compiles the command in the current directory (a test's package
// directory) into a fresh temporary directory and returns the binary's
// path. Runs start in that directory, so relative output paths land in it.
func Build(t *testing.T) string {
	t.Helper()
	pkg, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// ErrorPaths runs bin once per case, each as a subtest named by the case:
// every run must exit with the case's status and write exactly one line
// to stderr, the case's Line when it names one.
func ErrorPaths(t *testing.T, bin string, cases []Case) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.Args...)
			cmd.Dir = filepath.Dir(bin)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != tc.Exit {
				t.Fatalf("exit = %v, want status %d; stderr:\n%s", err, tc.Exit, stderr.String())
			}
			lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
			if len(lines) != 1 || lines[0] == "" {
				t.Fatalf("stderr has %d lines, want one:\n%s", len(lines), stderr.String())
			}
			if tc.Line != "" && lines[0] != tc.Line {
				t.Fatalf("stderr = %q, want %q", lines[0], tc.Line)
			}
		})
	}
}

// Run runs bin with args from its directory and returns its stdout,
// failing the test if it does not exit 0.
func Run(t *testing.T, bin string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = filepath.Dir(bin)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %s: %v; stderr:\n%s", filepath.Base(bin), strings.Join(args, " "), err, stderr.String())
	}
	return out
}
