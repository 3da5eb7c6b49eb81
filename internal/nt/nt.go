// Package nt implements a streaming N-Triples parser and serializer.
//
// The Go ecosystem offers no stdlib RDF support, so the repository carries
// its own parser for the (line-based) N-Triples syntax, the format both
// DBpedia and YAGO publish their dumps in. Supported: IRIs, blank nodes,
// plain / language-tagged / datatyped literals, the standard string escape
// sequences including \uXXXX and \UXXXXXXXX (each a Unicode scalar
// value), comments, and blank lines.
package nt

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"ksp/internal/rdf"
)

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("nt: line %d: %s", e.Line, e.Msg)
}

// Reader parses N-Triples statements from an input stream.
type Reader struct {
	s    *bufio.Scanner
	line int
}

// maxLine is the longest line a Reader accepts, in bytes.
const maxLine = 1 << 20

// NewReader returns a Reader over r. Lines up to 1 MiB are supported; a
// longer one is a *ParseError. The triples it returns hold slices of
// their line, and Load hands each one to rdf.Builder.AddTriple, which
// keeps what it needs of a predicate from the predicate's first triple.
func NewReader(r io.Reader) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 64*1024), maxLine)
	return &Reader{s: s}
}

// Next returns the next triple. It returns io.EOF at end of input and a
// *ParseError on malformed statements.
func (r *Reader) Next() (rdf.Triple, error) {
	for r.s.Scan() {
		r.line++
		line := strings.TrimSpace(r.s.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := r.parseLine(line)
		if err != nil {
			return rdf.Triple{}, err
		}
		return t, nil
	}
	if err := r.s.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return rdf.Triple{}, &ParseError{Line: r.line + 1, Msg: fmt.Sprintf("line longer than the %d-byte limit", maxLine)}
		}
		return rdf.Triple{}, err
	}
	return rdf.Triple{}, io.EOF
}

func (r *Reader) errf(format string, args ...interface{}) error {
	return &ParseError{Line: r.line, Msg: fmt.Sprintf(format, args...)}
}

func (r *Reader) parseLine(line string) (rdf.Triple, error) {
	p := &lineParser{src: line}
	s, err := p.term()
	if err != nil {
		return rdf.Triple{}, r.errf("subject: %v", err)
	}
	if !s.IsEntity() {
		return rdf.Triple{}, r.errf("subject must be an IRI or blank node")
	}
	pred, err := p.term()
	if err != nil {
		return rdf.Triple{}, r.errf("predicate: %v", err)
	}
	if pred.Kind != rdf.IRI {
		return rdf.Triple{}, r.errf("predicate must be an IRI")
	}
	o, err := p.term()
	if err != nil {
		return rdf.Triple{}, r.errf("object: %v", err)
	}
	p.skipSpace()
	if !p.eat('.') {
		return rdf.Triple{}, r.errf("missing terminating '.'")
	}
	p.skipSpace()
	if !p.done() && !strings.HasPrefix(p.rest(), "#") {
		return rdf.Triple{}, r.errf("trailing garbage %q", p.rest())
	}
	return rdf.Triple{S: s, P: pred, O: o}, nil
}

// labelChar reports whether c can follow a dot inside a blank-node
// label: a letter, digit, '_', '-' or ':', or a byte of a non-ASCII
// character.
func labelChar(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
		c == '_' || c == '-' || c == ':' || c >= utf8.RuneSelf
}

type lineParser struct {
	src string
	pos int
}

func (p *lineParser) done() bool    { return p.pos >= len(p.src) }
func (p *lineParser) rest() string  { return p.src[p.pos:] }
func (p *lineParser) peek() byte    { return p.src[p.pos] }
func (p *lineParser) advance() byte { c := p.src[p.pos]; p.pos++; return c }

func (p *lineParser) eat(c byte) bool {
	if !p.done() && p.peek() == c {
		p.pos++
		return true
	}
	return false
}

func (p *lineParser) skipSpace() {
	for !p.done() && (p.peek() == ' ' || p.peek() == '\t') {
		p.pos++
	}
}

func (p *lineParser) term() (rdf.Term, error) {
	p.skipSpace()
	if p.done() {
		return rdf.Term{}, fmt.Errorf("unexpected end of statement")
	}
	switch p.peek() {
	case '<':
		return p.iri()
	case '_':
		return p.blank()
	case '"':
		return p.literal()
	default:
		return rdf.Term{}, fmt.Errorf("unexpected character %q", p.peek())
	}
}

func (p *lineParser) iri() (rdf.Term, error) {
	if p.done() || p.peek() != '<' {
		return rdf.Term{}, fmt.Errorf("expected '<'")
	}
	p.advance() // '<'
	start := p.pos
	for !p.done() && p.peek() != '>' {
		p.pos++
	}
	if p.done() {
		return rdf.Term{}, fmt.Errorf("unterminated IRI")
	}
	v := p.src[start:p.pos]
	p.advance() // '>'
	return rdf.NewIRI(v), nil
}

func (p *lineParser) blank() (rdf.Term, error) {
	p.advance() // '_'
	if !p.eat(':') {
		return rdf.Term{}, fmt.Errorf("malformed blank node")
	}
	start := p.pos
	for !p.done() {
		c := p.peek()
		if c == ' ' || c == '\t' {
			break
		}
		if c == '.' {
			// A label may hold dots but not end with one: a run of dots
			// belongs to it only when a label character follows.
			end := p.pos
			for end < len(p.src) && p.src[end] == '.' {
				end++
			}
			if end == len(p.src) || !labelChar(p.src[end]) {
				break
			}
			p.pos = end
		}
		p.pos++
	}
	if p.pos == start {
		return rdf.Term{}, fmt.Errorf("empty blank node label")
	}
	return rdf.NewBlank(p.src[start:p.pos]), nil
}

func (p *lineParser) literal() (rdf.Term, error) {
	p.advance() // '"'
	var b strings.Builder
	for {
		if p.done() {
			return rdf.Term{}, fmt.Errorf("unterminated literal")
		}
		c := p.advance()
		if c == '"' {
			break
		}
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		if p.done() {
			return rdf.Term{}, fmt.Errorf("dangling escape")
		}
		e := p.advance()
		switch e {
		case 't':
			b.WriteByte('\t')
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 'b':
			b.WriteByte('\b')
		case 'f':
			b.WriteByte('\f')
		case '"', '\\', '\'':
			b.WriteByte(e)
		case 'u', 'U':
			width := 4
			if e == 'U' {
				width = 8
			}
			if p.pos+width > len(p.src) {
				return rdf.Term{}, fmt.Errorf("truncated \\%c escape", e)
			}
			hex := p.src[p.pos : p.pos+width]
			p.pos += width
			n, err := strconv.ParseUint(hex, 16, 32)
			if err != nil {
				return rdf.Term{}, fmt.Errorf("bad \\%c escape %q", e, hex)
			}
			if !utf8.ValidRune(rune(n)) {
				return rdf.Term{}, fmt.Errorf("escape \\%c%s is not a Unicode scalar value", e, hex)
			}
			b.WriteRune(rune(n))
		default:
			return rdf.Term{}, fmt.Errorf("unknown escape \\%c", e)
		}
	}
	val := b.String()
	// Optional language tag or datatype.
	if p.eat('@') {
		start := p.pos
		for !p.done() && p.peek() != ' ' && p.peek() != '\t' && p.peek() != '.' {
			p.pos++
		}
		if p.pos == start {
			return rdf.Term{}, fmt.Errorf("empty language tag")
		}
		return rdf.NewLiteral(val), nil // language tag parsed but not retained
	}
	if strings.HasPrefix(p.rest(), "^^") {
		p.pos += 2
		dt, err := p.iri()
		if err != nil {
			return rdf.Term{}, fmt.Errorf("datatype: %v", err)
		}
		return rdf.NewTypedLiteral(val, dt.Value), nil
	}
	return rdf.NewLiteral(val), nil
}

// Writer serializes triples in N-Triples syntax.
type Writer struct {
	w *bufio.Writer
}

// NewWriter returns a Writer on w; call Flush when done.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write emits one triple.
func (w *Writer) Write(t rdf.Triple) error {
	if err := w.writeTerm(t.S); err != nil {
		return err
	}
	w.w.WriteByte(' ')
	if err := w.writeTerm(t.P); err != nil {
		return err
	}
	w.w.WriteByte(' ')
	if err := w.writeTerm(t.O); err != nil {
		return err
	}
	_, err := w.w.WriteString(" .\n")
	return err
}

func (w *Writer) writeTerm(t rdf.Term) error {
	switch t.Kind {
	case rdf.IRI:
		w.w.WriteByte('<')
		w.w.WriteString(t.Value)
		return w.w.WriteByte('>')
	case rdf.Blank:
		w.w.WriteString("_:")
		_, err := w.w.WriteString(t.Value)
		return err
	default:
		w.w.WriteByte('"')
		for _, r := range t.Value {
			switch r {
			case '"':
				w.w.WriteString(`\"`)
			case '\\':
				w.w.WriteString(`\\`)
			case '\n':
				w.w.WriteString(`\n`)
			case '\r':
				w.w.WriteString(`\r`)
			case '\t':
				w.w.WriteString(`\t`)
			default:
				w.w.WriteRune(r)
			}
		}
		w.w.WriteByte('"')
		if t.Datatype != "" {
			w.w.WriteString("^^<")
			w.w.WriteString(t.Datatype)
			return w.w.WriteByte('>')
		}
		return nil
	}
}

// Flush writes buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Load feeds every triple from r into the builder and returns the number
// of statements accepted by the builder (skip-listed triples parse but do
// not count).
func Load(r io.Reader, b *rdf.Builder) (accepted int, err error) {
	rd := NewReader(r)
	for {
		t, err := rd.Next()
		if err == io.EOF {
			return accepted, nil
		}
		if err != nil {
			return accepted, err
		}
		if b.AddTriple(t) {
			accepted++
		}
	}
}
