package main

import (
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
	"strconv"

	isis "repro"
)

// Everything a workload sends is generated here from the run's seed: which
// primitive each rpc-mix op uses, the stream-tcp size sequence, and every
// payload byte. The program under test sees only these inputs.

// rpcPayloadSize is the rpc-mix and churn background payload.
const rpcPayloadSize = 64

// streamSizes are the stream-tcp message sizes, drawn uniformly.
var streamSizes = []int{64, 1024, 8192}

// churnStateSize is the group state each churn joiner receives.
const churnStateSize = 16 * 1024

// rng returns a deterministic source for one named stream of one seed, so
// that adding a stream never shifts the values of another.
func rng(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// kindStream draws rpc-mix primitives, ABCAST or CBCAST with equal odds.
type kindStream struct{ r *rand.Rand }

func newKindStream(seed int64, client int) kindStream {
	return kindStream{rng(seed, "rpc-mix/kind/"+strconv.Itoa(client))}
}

func (k kindStream) next() isis.Protocol {
	if k.r.Intn(2) == 0 {
		return isis.ABCAST
	}
	return isis.CBCAST
}

// sizeStream draws stream-tcp message sizes.
type sizeStream struct{ r *rand.Rand }

func newSizeStream(seed int64) sizeStream { return sizeStream{rng(seed, "stream-tcp/size")} }

func (s sizeStream) next() int { return streamSizes[s.r.Intn(len(streamSizes))] }

// fill writes deterministic bytes for (seed, id) into b.
func fill(b []byte, seed, id int64) {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(id)
	var w [8]byte
	for i := 0; i < len(b); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		binary.LittleEndian.PutUint64(w[:], z)
		copy(b[i:], w[:])
	}
}

// payload returns n generated bytes for (seed, id) and their checksum.
func payload(seed, id int64, n int) ([]byte, uint32) {
	b := make([]byte, n)
	fill(b, seed, id)
	return b, crc32.ChecksumIEEE(b)
}

// variant is one pre-generated payload and its checksum.
type variant struct {
	d   []byte
	crc uint32
}

// payloadVariants pre-generates a few payloads of each stream size, so the
// sender's loop does not spend its time generating bytes.
type payloadVariants map[int][]variant

const variantsPerSize = 8

func newPayloadVariants(seed int64) payloadVariants {
	v := make(payloadVariants)
	for _, n := range streamSizes {
		for i := 0; i < variantsPerSize; i++ {
			b, crc := payload(seed, int64(n*variantsPerSize+i), n)
			v[n] = append(v[n], variant{b, crc})
		}
	}
	return v
}

// checksumOK reports whether a delivered message's "d" field matches the
// checksum the sender put in its "crc" field.
func checksumOK(m *isis.Message) bool {
	return int64(crc32.ChecksumIEEE(m.GetBytes("d"))) == m.GetInt("crc", -1)
}
