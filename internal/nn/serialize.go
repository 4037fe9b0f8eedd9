package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"snmatch/internal/imaging"
)

// magic identifies the model file format.
const magic = uint32(0x534e5843) // "SNXC"

// Save writes the network configuration and weights to w.
func (n *NXCorrNet) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cfg := []int64{
		int64(n.Cfg.InputH), int64(n.Cfg.InputW), int64(n.Cfg.InputC),
		int64(n.Cfg.Conv1Out), int64(n.Cfg.Conv2Out), int64(n.Cfg.Kernel),
		int64(n.Cfg.Patch), int64(n.Cfg.SearchW), int64(n.Cfg.SearchH),
		int64(n.Cfg.Conv3Out), int64(n.Cfg.Hidden), int64(n.Cfg.Seed),
	}
	if err := binary.Write(bw, binary.LittleEndian, magic); err != nil {
		return fmt.Errorf("nn: save header: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, cfg); err != nil {
		return fmt.Errorf("nn: save config: %w", err)
	}
	for _, p := range n.params {
		if err := binary.Write(bw, binary.LittleEndian, p.W.Data); err != nil {
			return fmt.Errorf("nn: save weights: %w", err)
		}
	}
	return bw.Flush()
}

// Load reads a network saved with Save.
func Load(r io.Reader) (*NXCorrNet, error) {
	br := bufio.NewReader(r)
	var m uint32
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, fmt.Errorf("nn: load header: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("nn: bad magic %#x", m)
	}
	cfg := make([]int64, 12)
	if err := binary.Read(br, binary.LittleEndian, cfg); err != nil {
		return nil, fmt.Errorf("nn: load config: %w", err)
	}
	c := NXCorrConfig{
		InputH: int(cfg[0]), InputW: int(cfg[1]), InputC: int(cfg[2]),
		Conv1Out: int(cfg[3]), Conv2Out: int(cfg[4]), Kernel: int(cfg[5]),
		Patch: int(cfg[6]), SearchW: int(cfg[7]), SearchH: int(cfg[8]),
		Conv3Out: int(cfg[9]), Hidden: int(cfg[10]), Seed: uint64(cfg[11]),
	}
	net, err := NewNXCorrNet(c)
	if err != nil {
		return nil, err
	}
	for _, p := range net.params {
		if err := binary.Read(br, binary.LittleEndian, p.W.Data); err != nil {
			return nil, fmt.Errorf("nn: load weights: %w", err)
		}
	}
	return net, nil
}

// ImageToTensor converts an RGB image to a [3, H, W] tensor with values
// scaled to [0, 1], resizing to the given shape first.
func ImageToTensor(img *imaging.Image, h, w int) *Tensor {
	if img.W != w || img.H != h {
		img = img.ResizeBilinear(w, h)
	}
	t := NewTensor(3, h, w)
	plane := h * w
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := img.At(x, y)
			i := y*w + x
			t.Data[i] = float32(c.R) / 255
			t.Data[plane+i] = float32(c.G) / 255
			t.Data[2*plane+i] = float32(c.B) / 255
		}
	}
	return t
}
