package main

// splitmix64 is the seeded mixing step every input decision derives
// from, so any op can be computed without replaying a generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash64 folds parts through splitmix64.
func hash64(parts ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, p := range parts {
		h = splitmix64(h ^ p)
	}
	return h
}

// nameFrom makes a seeded entry name of 2 to 7 letters, suffixed with i
// so names in one directory never collide. Varying lengths vary the
// gate argument sizes, and so the virtual cost, from seed to seed.
func nameFrom(h uint64, i int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	n := 2 + int(h%6)
	b := make([]byte, 0, n+4)
	for j := 0; j < n; j++ {
		h = splitmix64(h)
		b = append(b, letters[h%26])
	}
	return string(b) + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}
