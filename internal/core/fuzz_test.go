package core

import (
	"reflect"
	"strings"
	"testing"

	"iokast/internal/iogen"
	"iokast/internal/token"
	"iokast/internal/trace"
	"iokast/internal/tree"
)

// decodeWeighted turns fuzz bytes into a weighted string: each byte yields
// one token whose literal is drawn from a small alphabet (high nibble, so
// shared substrings are common) and whose weight is 1..16 (low nibble).
// Small alphabets maximise the chance of exercising the interesting kernel
// phases (shared substrings, coverage, viability).
func decodeWeighted(data []byte, maxLen int) token.String {
	if len(data) > maxLen {
		data = data[:maxLen]
	}
	s := make(token.String, len(data))
	for i, b := range data {
		s[i] = token.Token{
			Literal: string(rune('a' + (b>>4)%4)),
			Weight:  int(b&0x0f) + 1,
		}
	}
	return s
}

// FuzzKastMatchesNaive cross-checks the optimised Kast kernel against the
// per-definition NaiveKast reference on random weighted strings, cut
// weights, and both viability variants. The naive implementation is
// O(n^3)-ish, so inputs are truncated to keep iterations fast.
func FuzzKastMatchesNaive(f *testing.F) {
	f.Add([]byte{0x11, 0x22, 0x11}, []byte{0x11, 0x22}, uint8(2), false)
	f.Add([]byte{0x14, 0x24, 0x14, 0x24}, []byte{0x14, 0x24, 0x14}, uint8(4), false)
	f.Add([]byte{0xf1, 0x01, 0xf1}, []byte{0xf1, 0x01}, uint8(3), true)
	f.Add([]byte{}, []byte{0x55}, uint8(0), false)
	f.Add([]byte{0x33, 0x33, 0x33, 0x33, 0x33}, []byte{0x33, 0x33, 0x33}, uint8(6), true)
	// Periodic pairs: every substring recurs, and B positions have several
	// equally long best matches in A.
	f.Add([]byte{0x12, 0x23, 0x14, 0x21, 0x13, 0x22, 0x11, 0x24, 0x12, 0x23}, []byte{0x21, 0x13, 0x22, 0x14, 0x23, 0x11, 0x22, 0x12}, uint8(5), false)
	f.Add([]byte{0x01, 0x12, 0x23, 0x03, 0x11, 0x22, 0x02, 0x13, 0x21, 0x04, 0x12, 0x23}, []byte{0x11, 0x22, 0x03, 0x12, 0x21, 0x02, 0x13}, uint8(4), false)

	f.Fuzz(func(t *testing.T, rawA, rawB []byte, cut uint8, total bool) {
		a := decodeWeighted(rawA, 12)
		b := decodeWeighted(rawB, 12)
		via := ViaMaxOccurrence
		if total {
			via = ViaTotalWeight
		}
		// Weights are <= 16 and strings <= 12 tokens, so cut weights above
		// 16*12 are all equivalent to "nothing viable"; cap keeps the
		// space dense without losing that case.
		k := &Kast{CutWeight: int(cut), Viability: via}
		naive := &NaiveKast{CutWeight: int(cut), Viability: via}

		fast := k.Compare(a, b)
		slow := naive.Compare(a, b)
		if fast != slow {
			t.Fatalf("Kast(%v) mismatch on\n a=%v\n b=%v\n fast=%g slow=%g",
				k.Name(), a, b, fast, slow)
		}

		// The kernel must be symmetric too.
		if rev := k.Compare(b, a); rev != fast {
			t.Fatalf("asymmetric: k(a,b)=%g k(b,a)=%g", fast, rev)
		}

		// And ComparePrepared over a shared interner must agree exactly
		// with the pairwise-interned path.
		in := NewInterner()
		pa, pb := in.Prepare(a), in.Prepare(b)
		if prep := k.ComparePrepared(pa, pb); prep != fast {
			t.Fatalf("ComparePrepared=%g, Compare=%g", prep, fast)
		}
	})
}

// FuzzConvertText holds the one-pass conversion to the two-step reference,
// trace.ParseString, tree.Build, tree.Compress and token.FromTree, under
// every kind of compression setting: the same name and tokens, or the same
// error text. When long is set the text gains a 4 MiB line, over the
// parser's line bound, so that the corpus keeps no 4 MiB entry.
func FuzzConvertText(f *testing.F) {
	for _, cat := range iogen.LoadCategories {
		body, _ := iogen.NewBodyGen(1, []iogen.Category{cat}).Next()
		f.Add(body, false)
	}
	f.Add("open fh=1\nread fh=1 path=", true)
	for _, text := range []string{
		// interleaved handles
		"open fh=1\nopen fh=2\nread fh=1 bytes=8\nread fh=2 bytes=8\nread fh=1 bytes=8\nclose fh=2\nread fh=1 bytes=8\nclose fh=1\n",
		// ops outside open..close, before and after a span
		"read fh=3 bytes=4\nread fh=3 bytes=4\nopen fh=3\nwrite fh=3 bytes=4\nclose fh=3\nwrite fh=3 bytes=4\nwrite fh=3 bytes=4\nclose fh=9\n",
		// a negligible op between two equal ops
		"open fh=1\nread fh=1 bytes=8\nfstat fh=1\nread fh=1 bytes=8\nclose fh=1\n",
		// equal ops on both sides of a close
		"open fh=1\nread fh=1 bytes=8\nclose fh=1\nread fh=1 bytes=8\n",
		// runs that rules 2-4 fold once rule 1 has
		"% name=\"r\\tuns\" label=x\nopen fh=1\nlseek fh=1\nwrite fh=1 bytes=2\nwrite fh=1 bytes=2\nlseek fh=1\nwrite fh=1 bytes=4\nread fh=1 bytes=2 addr=0xff\n",
		"# a comment\n\n# another\n",
		"open fh=1\nread fh=1 bytes=8\nread fh=x\nclose fh=1\n",
	} {
		f.Add(text, false)
	}
	opts := []Options{
		{},
		{IgnoreBytes: true},
		{Compress: tree.CompressOptions{Passes: -1}},
		{Compress: tree.CompressOptions{Passes: 1}},
		{Compress: tree.CompressOptions{Passes: NoCompression}},
	}
	f.Fuzz(func(t *testing.T, text string, long bool) {
		if long {
			text += strings.Repeat("p", 4<<20) + "\n"
		}
		tr, wantErr := trace.ParseString(text)
		for _, opt := range opts {
			name, x, err := ConvertText(text, opt)
			if err != nil || wantErr != nil {
				if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
					t.Fatalf("%+v: ConvertText error %v, ParseString error %v", opt, err, wantErr)
				}
				continue
			}
			root := tree.Build(tr, opt.buildOptions())
			tree.Compress(root, opt.compressOptions())
			if want := token.FromTree(root); name != tr.Name || !reflect.DeepEqual(x, want) {
				t.Fatalf("%+v: ConvertText = %q %v, want %q %v", opt, name, x, tr.Name, want)
			}
		}
	})
}
