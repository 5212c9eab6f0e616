package ddb_test

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestNoDirectExtractionMutation enforces the database contract
// mechanically: no package outside internal/ddb (and the owning
// internal/extract itself) may mutate extract.Design in place. Every
// post-routing RC patch must flow through a ddb.Txn so the dirty set
// and undo journal stay complete. The test scans non-test sources for
// the mutation idioms the refactor removed.
func TestNoDirectExtractionMutation(t *testing.T) {
	root := moduleRoot(t)
	banned := []*regexp.Regexp{
		// Direct calls to the extraction's (and the route table's)
		// in-place rewrite and restore methods.
		regexp.MustCompile(`\.Reextract\(`),
		regexp.MustCompile(`\.Restore\(`),
		// In-place edits of the extraction tables and totals.
		regexp.MustCompile(`\.Ex\.Nets\[[^\]]+\]\s*=[^=]`),
		regexp.MustCompile(`\bCWireTotal\s*[-+]?=[^=]`),
		regexp.MustCompile(`\bCPinTotal\s*[-+]?=[^=]`),
		// Wholesale overwrite of a held extraction (the old rollback).
		regexp.MustCompile(`\*\w+\.Ex\s*=[^=]`),
	}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == filepath.Join("internal", "ddb") || rel == filepath.Join("internal", "extract") || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			line := sc.Text()
			if strings.HasPrefix(strings.TrimSpace(line), "//") {
				continue
			}
			for _, re := range banned {
				if re.MatchString(line) {
					t.Errorf("%s:%d: direct extraction mutation %q outside internal/ddb:\n\t%s",
						rel, lineNo, re.String(), strings.TrimSpace(line))
				}
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}
