package mem

import "testing"

// TestChecksumIsXXH64: Checksum reproduces published XXH64 (seed 0)
// values, below and above the 32-byte stripe.
func TestChecksumIsXXH64(t *testing.T) {
	for _, c := range []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"a", 0xd24ec4f1a98c6e5b},
		{"abc", 0x44bc2cf5ad770999},
		{"Nobody inspects the spammish repetition", 0xfbcea83c8a378bf1},
	} {
		if got := Checksum([]byte(c.in)); got != c.want {
			t.Errorf("Checksum(%q) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

// TestChecksumSeesEveryChange: on seeded and all-zero inputs of 0-300
// bytes, every single-bit flip, every truncation and every zero-extension
// up to 300 bytes changes the sum. On one 75 KB input (a Shadow page-table
// blob's size) every truncation and zero-extensions of up to 64 bytes do,
// and so do flips that reach every word, each bit position of a word in
// turn.
func TestChecksumSeesEveryChange(t *testing.T) {
	const small, large = 300, 75 << 10
	seeded := make([]byte, large+64)
	state := uint64(2026)
	for i := range seeded[:large] {
		seeded[i] = byte(splitmix64(&state))
	}
	t.Run("0-300B", func(t *testing.T) {
		for _, in := range []struct {
			name string
			buf  []byte
		}{{"seeded", seeded[:small]}, {"zero", make([]byte, small)}} {
			buf := in.buf
			// Every prefix sum distinct covers every truncation of every
			// length, and every zero-extension of the all-zero input.
			distinctPrefixes(t, in.name, buf)
			for n := 0; n <= small; n++ {
				base := Checksum(buf[:n])
				for bit := 0; bit < 8*n; bit++ {
					buf[bit/8] ^= 1 << (bit % 8)
					if Checksum(buf[:n]) == base {
						t.Fatalf("%s, %d bytes: flipping bit %d keeps the sum", in.name, n, bit)
					}
					buf[bit/8] ^= 1 << (bit % 8)
				}
				ext := append(append([]byte(nil), buf[:n]...), make([]byte, small-n)...)
				for k := n + 1; k <= small; k++ {
					if Checksum(ext[:k]) == base {
						t.Fatalf("%s, %d bytes: extending by %d zero bytes keeps the sum", in.name, n, k-n)
					}
				}
			}
		}
	})
	t.Run("75KB", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race build sums the 75 KB input's 3 GB about 100 times slower")
		}
		buf := seeded[:large]
		base := Checksum(buf)
		distinctPrefixes(t, "75 KB", buf)
		for k := 1; k <= 64; k++ {
			if Checksum(seeded[:large+k]) == base {
				t.Fatalf("75 KB: extending by %d zero bytes keeps the sum", k)
			}
		}
		for w := 0; w < large/8; w++ {
			bit := w*64 + w%64
			buf[bit/8] ^= 1 << (bit % 8)
			if Checksum(buf) == base {
				t.Fatalf("75 KB: flipping bit %d keeps the sum", bit)
			}
			buf[bit/8] ^= 1 << (bit % 8)
		}
	})
}

// distinctPrefixes fails unless every prefix of buf, empty to whole, has
// its own sum.
func distinctPrefixes(t *testing.T, name string, buf []byte) {
	t.Helper()
	seen := make(map[uint64]int, len(buf)+1)
	for n := 0; n <= len(buf); n++ {
		sum := Checksum(buf[:n])
		if m, ok := seen[sum]; ok {
			t.Fatalf("%s: the %d- and %d-byte prefixes have the same sum", name, m, n)
		}
		seen[sum] = n
	}
}
