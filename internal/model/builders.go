package model

import (
	"fmt"
	"math"
	"math/rand/v2"

	"rtmap/internal/quant"
	"rtmap/internal/tensor"
	"rtmap/internal/ternary"
)

// builder incrementally assembles a Network DAG.
type builder struct {
	net      *Network
	rng      *rand.Rand
	cfg      Config
	last     int // index of the most recent layer; InputRef initially
	shareSeq int
}

func newBuilder(name string, input tensor.Shape, cfg Config) *builder {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	return &builder{
		net: &Network{
			Name:       name,
			InputShape: input,
			InputQ:     quant.Quantizer{Bits: cfg.ActBits, Step: 1},
		},
		rng:  rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xda7a5eed)),
		cfg:  cfg,
		last: InputRef,
	}
}

func (b *builder) push(l Layer) int {
	b.net.Layers = append(b.net.Layers, l)
	b.last = len(b.net.Layers) - 1
	return b.last
}

// wscale returns the TWN scale α for a filter with the given fan-in. The
// 1/sqrt(expected nonzero fan-in) rule keeps activation variance roughly
// unit across layers, standing in for the learned α of a trained TWN.
func (b *builder) wscale(cin, fh, fw int) float32 {
	nnz := (1 - b.cfg.Sparsity) * float64(cin*fh*fw)
	if nnz < 1 {
		nnz = 1
	}
	return float32(1 / math.Sqrt(nnz))
}

func (b *builder) conv(name string, from, cin, cout, k, stride, pad int) int {
	w := ternary.Random(b.rng, cout, cin, k, k, b.cfg.Sparsity)
	return b.push(Layer{
		Kind: KindConv, Name: name, Inputs: []int{from},
		W: w, WScale: b.wscale(cin, k, k), Stride: stride, Pad: pad,
	})
}

func (b *builder) linear(name string, from, cin, cout int) int {
	w := ternary.Random(b.rng, cout, cin, 1, 1, b.cfg.Sparsity)
	return b.push(Layer{
		Kind: KindLinear, Name: name, Inputs: []int{from},
		W: w, WScale: b.wscale(cin, 1, 1), Stride: 1,
	})
}

// qrelu adds the standard fused ReLU+quantize activation layer.
func (b *builder) qrelu(name string, from int) int {
	return b.push(Layer{
		Kind: KindActQuant, Name: name, Inputs: []int{from},
		Q: quant.Quantizer{Bits: b.cfg.ActBits, Step: 1}, ReLU: true,
	})
}

// qsigned adds a signed, non-ReLU requantization used to align the two
// branches of a residual add on one shared grid (share ties their steps).
func (b *builder) qsigned(name string, from, share int) int {
	return b.push(Layer{
		Kind: KindActQuant, Name: name, Inputs: []int{from},
		Q:       quant.Quantizer{Bits: b.cfg.ActBits + 1, Step: 1, Signed: true},
		ShareID: share,
	})
}

func (b *builder) maxpool(name string, from, k, stride, pad int) int {
	return b.push(Layer{
		Kind: KindMaxPool, Name: name, Inputs: []int{from},
		Pool: tensor.PoolSpec{K: k, Stride: stride, Pad: pad},
	})
}

func (b *builder) gavg(name string, from int) int {
	return b.push(Layer{Kind: KindGlobalAvgPool, Name: name, Inputs: []int{from}})
}

func (b *builder) flatten(name string, from int) int {
	return b.push(Layer{Kind: KindFlatten, Name: name, Inputs: []int{from}})
}

func (b *builder) add(name string, a, c int) int {
	return b.push(Layer{Kind: KindAdd, Name: name, Inputs: []int{a, c}})
}

// basicBlock appends a ResNet basic block: two 3×3 convolutions plus a
// residual connection (with a 1×1 stride-s downsample conv when the shape
// changes), all on quantized grids.
func (b *builder) basicBlock(prefix string, from, cin, cout, stride int) int {
	b.shareSeq++
	share := b.shareSeq

	c1 := b.conv(prefix+".conv1", from, cin, cout, 3, stride, 1)
	q1 := b.qrelu(prefix+".q1", c1)
	c2 := b.conv(prefix+".conv2", q1, cout, cout, 3, 1, 1)
	main := b.qsigned(prefix+".qmain", c2, share)

	skipFrom := from
	if stride != 1 || cin != cout {
		d := b.conv(prefix+".downsample", from, cin, cout, 1, stride, 0)
		skipFrom = d
	}
	skip := b.qsigned(prefix+".qskip", skipFrom, share)

	sum := b.add(prefix+".add", main, skip)
	return b.qrelu(prefix+".qout", sum)
}

// ResNet18 builds the ImageNet-scale ResNet-18 evaluated in Table II and
// Fig. 4 (20 convolutional layers: stem + 16 block convs + 3 downsamples,
// then global average pooling and a 1000-way classifier).
func ResNet18(cfg Config) *Network {
	b := newBuilder("resnet18-imagenet", resnet18Input, cfg)
	x := b.conv("conv1", InputRef, 3, 64, 7, 2, 3)
	x = b.qrelu("conv1.q", x)
	x = b.maxpool("maxpool", x, 3, 2, 1)

	widths := []int{64, 128, 256, 512}
	cin := 64
	for stage, w := range widths {
		for blk := 0; blk < 2; blk++ {
			stride := 1
			if blk == 0 && stage > 0 {
				stride = 2
			}
			x = b.basicBlock(fmt.Sprintf("layer%d.%d", stage+1, blk), x, cin, w, stride)
			cin = w
		}
	}
	x = b.gavg("gavgpool", x)
	x = b.flatten("flatten", x)
	b.linear("fc", x, 512, 1000)
	return b.net
}

// MiniResNet18 is the same topology as ResNet18 at reduced input
// resolution (inH×inW), used where full ImageNet resolution would make
// functional simulation needlessly slow. Layer structure, channel widths
// and sparsity are unchanged, so per-layer compiler statistics match the
// full model exactly (DFGs depend only on weights).
func MiniResNet18(cfg Config, inH, inW int) *Network {
	full := ResNet18(cfg)
	full.Name = fmt.Sprintf("resnet18-mini%dx%d", inH, inW)
	full.InputShape = tensor.Shape{N: 1, C: 3, H: inH, W: inW}
	return full
}

// VGG9 builds the CIFAR10-scale VGG-9 (6 conv + 3 FC layers) of Table II.
func VGG9(cfg Config) *Network {
	b := newBuilder("vgg9-cifar10", cifar10Input, cfg)
	x := InputRef
	cin := 3
	block := func(stage, n, cout int) {
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("conv%d_%d", stage, i+1)
			x = b.conv(name, x, cin, cout, 3, 1, 1)
			x = b.qrelu(name+".q", x)
			cin = cout
		}
		x = b.maxpool(fmt.Sprintf("pool%d", stage), x, 2, 2, 0)
	}
	block(1, 2, 64)
	block(2, 2, 128)
	block(3, 2, 256)
	x = b.flatten("flatten", x) // 256×4×4 → 4096
	x = b.linear("fc1", x, 4096, 256)
	x = b.qrelu("fc1.q", x)
	x = b.linear("fc2", x, 256, 256)
	x = b.qrelu("fc2.q", x)
	b.linear("fc3", x, 256, 10)
	return b.net
}

// VGG11 builds the CIFAR10-scale VGG-11 (8 conv + 3 FC layers) of Table II.
func VGG11(cfg Config) *Network {
	b := newBuilder("vgg11-cifar10", cifar10Input, cfg)
	x := InputRef
	cin := 3
	stage := 0
	block := func(n, cout int) {
		stage++
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("conv%d_%d", stage, i+1)
			x = b.conv(name, x, cin, cout, 3, 1, 1)
			x = b.qrelu(name+".q", x)
			cin = cout
		}
		x = b.maxpool(fmt.Sprintf("pool%d", stage), x, 2, 2, 0)
	}
	block(1, 64)
	block(1, 128)
	block(2, 256)
	block(2, 512)
	block(2, 512) // feature map 512×1×1
	x = b.flatten("flatten", x)
	x = b.linear("fc1", x, 512, 512)
	x = b.qrelu("fc1.q", x)
	x = b.linear("fc2", x, 512, 512)
	x = b.qrelu("fc2.q", x)
	b.linear("fc3", x, 512, 10)
	return b.net
}

// TinyCNN is a small sequential network for fast functional tests.
func TinyCNN(cfg Config) *Network {
	b := newBuilder("tinycnn", tinyCNNInput, cfg)
	x := b.conv("conv1", InputRef, 2, 4, 3, 1, 1)
	x = b.qrelu("conv1.q", x)
	x = b.maxpool("pool1", x, 2, 2, 0)
	x = b.conv("conv2", x, 4, 6, 3, 1, 1)
	x = b.qrelu("conv2.q", x)
	x = b.gavg("gap", x)
	x = b.flatten("flatten", x)
	b.linear("fc", x, 6, 4)
	return b.net
}

// TinyResNet is a small residual network exercising Add/downsample paths in
// tests.
func TinyResNet(cfg Config) *Network {
	b := newBuilder("tinyresnet", tinyResNetInput, cfg)
	x := b.conv("conv1", InputRef, 3, 4, 3, 1, 1)
	x = b.qrelu("conv1.q", x)
	x = b.basicBlock("block1", x, 4, 4, 1)
	x = b.basicBlock("block2", x, 4, 8, 2)
	x = b.gavg("gap", x)
	x = b.flatten("flatten", x)
	b.linear("fc", x, 8, 4)
	return b.net
}
