package lefdef

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode"

	"macro3d/internal/geom"
)

// tokenizer splits a LEF/DEF stream into whitespace-separated words,
// treating ';' as its own token and '#' comments to end of line. It
// tracks the 1-based source line of the tokens it hands out so parse
// errors can point at the offending input. A token is a substring of its
// line, so a line costs one string and its tokens nothing more.
type tokenizer struct {
	s    *bufio.Scanner
	rest string // the current line's unread tail
	back string // a token pushed back by expect, handed out next
	line int
}

func newTokenizer(r io.Reader) *tokenizer {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 4<<10), 1<<22)
	return &tokenizer{s: s}
}

func (t *tokenizer) next() (string, bool) {
	if w := t.back; w != "" {
		t.back = ""
		return w, true
	}
	for {
		t.rest = strings.TrimLeftFunc(t.rest, unicode.IsSpace)
		if t.rest != "" {
			break
		}
		if !t.s.Scan() {
			return "", false
		}
		t.line++
		line := t.s.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		t.rest = line
	}
	n := 1 // a ';' alone
	if t.rest[0] != ';' {
		if n = strings.IndexFunc(t.rest, isBreak); n < 0 {
			n = len(t.rest)
		}
	}
	w := t.rest[:n]
	t.rest = t.rest[n:]
	return w, true
}

// isBreak reports whether r ends a word.
func isBreak(r rune) bool { return r == ';' || unicode.IsSpace(r) }

// nextFloat parses the next token as a number.
func (t *tokenizer) nextFloat() (float64, error) {
	w, ok := t.next()
	if !ok {
		return 0, t.errf("unexpected EOF, wanted number")
	}
	v, err := strconv.ParseFloat(w, 64)
	if err != nil {
		return 0, t.errf("expected number, got %q", w)
	}
	return v, nil
}

// errf builds a parse error tagged with the current source line.
func (t *tokenizer) errf(format string, args ...any) error {
	return fmt.Errorf("lefdef: "+format+" (line %d)", append(args, t.line)...)
}

// expect consumes one token and checks it.
func (t *tokenizer) expect(want string) {
	if w, ok := t.next(); ok && w != want {
		// Tolerant: push back so callers continue (the dialect is
		// machine-written; a mismatch indicates trailing options).
		t.back = w
	}
}

// skipStatement consumes tokens through the next ';'.
func (t *tokenizer) skipStatement() {
	for {
		w, ok := t.next()
		if !ok || w == ";" {
			return
		}
	}
}

func rect4(r [4]float64) geom.Rect {
	return geom.R(r[0], r[1], r[2], r[3])
}

// push appends x to s, doubling the capacity when s is full: a list of n
// records costs at most 4n of them in allocations whatever its length,
// where append's gentler growth past 256 elements costs about 5n.
func push[T any](s []T, x T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 4))
	}
	return append(s, x)
}
