package text

// Analyzer turns raw text (URIs, literals, query keywords) into the
// normalized terms the indexes store. The zero value performs plain
// tokenization — the paper's document-construction scheme; stopword
// removal and Porter stemming are opt-in production niceties that must be
// applied identically at indexing and query time (rdf.Graph therefore
// carries its Analyzer).
type Analyzer struct {
	// RemoveStopwords drops very common English words.
	RemoveStopwords bool
	// Stemming reduces tokens to Porter stems so that morphological
	// variants match ("architecture" ~ "architectural").
	Stemming bool
}

// Analyze tokenizes s and applies the configured normalizations,
// deduplicating the result (first-occurrence order).
func (a Analyzer) Analyze(s string) []string {
	var toks []string
	var scratch [64]byte
	z := tokenizer{s: localName(s)}
	for buf := scratch[:0]; ; {
		t, ok := a.next(&z, buf)
		if !ok {
			break
		}
		toks = append(toks, string(t))
		buf = t
	}
	seen := make(map[string]struct{}, len(toks))
	out := toks[:0]
	for _, t := range toks {
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// Terms calls fn with each term of s in order, repeats included: the
// terms Analyze returns before it drops its repeats. It returns buf for
// the next call. A term is built in buf and is valid only until fn
// returns, so a caller that interns terms allocates only for new ones
// and, unlike Analyze, no set per call: a document deduplicates its
// terms once, when it is built.
func (a Analyzer) Terms(buf []byte, s string, fn func(term []byte)) []byte {
	z := tokenizer{s: localName(s)}
	for {
		t, ok := a.next(&z, buf)
		if !ok {
			return t
		}
		fn(t)
		buf = t
	}
}

// next returns z's next term under a, built in buf as tokenizer.next
// builds tokens; ok is false at the end.
func (a Analyzer) next(z *tokenizer, buf []byte) (term []byte, ok bool) {
	for {
		t, ok := z.next(buf)
		if !ok {
			return t, false
		}
		buf = t
		if a.RemoveStopwords {
			if _, stop := stopwords[string(t)]; stop {
				continue
			}
		}
		if a.Stemming {
			t = append(t[:0], Stem(string(t))...)
		}
		return t, true
	}
}

// stopwords is a compact English list; enough to drop glue words from
// literals without eating content terms.
var stopwords = map[string]struct{}{}

func init() {
	for _, w := range []string{
		"a", "an", "and", "are", "as", "at", "be", "but", "by", "for",
		"from", "has", "have", "he", "her", "his", "if", "in", "into",
		"is", "it", "its", "no", "not", "of", "on", "or", "s", "she",
		"such", "t", "that", "the", "their", "then", "there", "these",
		"they", "this", "to", "was", "were", "will", "with",
	} {
		stopwords[w] = struct{}{}
	}
}
