package sig

import (
	"strings"
	"testing"
)

// goldenSeeds are the key seeds the golden vectors were generated under.
var goldenSeeds = [...]uint64{1, 42, 0x9e3779b97f4a7c15}

// goldenComponent returns an n-byte component of varied, deterministic
// bytes (no '/').
func goldenComponent(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + (i*7+n)%26)
	}
	return string(b)
}

// goldenLongPath returns an n-byte absolute path of components whose
// lengths cycle 1..40.
func goldenLongPath(n int) string {
	var sb strings.Builder
	for c := 1; sb.Len() < n; c = c%40 + 1 {
		sb.WriteByte('/')
		sb.WriteString(goldenComponent(c))
	}
	return sb.String()[:n]
}

// goldenPaths are the hashed inputs, in the order of goldenSums' columns.
var goldenPaths = []string{
	"",
	"/",
	"/a",
	"/" + goldenComponent(255),
	goldenLongPath(MaxPathLen),
	"/etc/passwd",
	"/usr/include/sys/types.h",
	"/usr/lib/x86_64-linux-gnu/libc.so.6",
	"/home/alice/.config/git/ignore",
	"/var/log/syslog.1",
	"/srv/maven/org/apache/commons/commons-lang3/3.12.0/commons-lang3-3.12.0.jar",
	"/srv/node/app/node_modules/left-pad/package.json",
	"/proc/self/status",
	"/tmp",
	"/a/b/c/d/e/f/g/file",
	"/work/tree/d03/f17",
	"/bin/\x00\xff\x80 sh",
}

// goldenSum is one expected (index, signature) pair.
type goldenSum struct {
	idx uint16
	w   [4]uint64
}

// goldenSums[i][j] is HashString(goldenPaths[j]) under NewKey(goldenSeeds[i]),
// generated at commit 967d019 — before the key schedule went position-major.
// A layout or loop change that alters any bit of any signature fails here;
// do not regenerate these to make it pass.
var goldenSums = [len(goldenSeeds)][]goldenSum{
	{
		{0xb982, [4]uint64{0x22145bd91204, 0x9684eada2dd45eae, 0x64d34d6ba2ed2636, 0x360f2ca77a5e12cc}},
		{0x7d2c, [4]uint64{0xc05d8a674044, 0x557bdee01e81ac18, 0xcecaf8c094bed98b, 0x54dad135cc4fea69}},
		{0x328b, [4]uint64{0x815874e0f759, 0xf728520005f4f37a, 0x6c1ff4c8b20fc10b, 0xcc223bdf36bf7b32}},
		{0x11d6, [4]uint64{0x22453c1ec6f0, 0x75a2f74b793d9d73, 0x4b2df9fd0000db31, 0xef28b47d068df86f}},
		{0x9a78, [4]uint64{0x74f0b5471fbf, 0x19d3a105509dd511, 0x93285485eeef9b77, 0x5853dc26497d0ad4}},
		{0x8981, [4]uint64{0xa69f14f00b5c, 0xbb664529260a2473, 0x5715852ef3c5682, 0x67f069585277087b}},
		{0xc198, [4]uint64{0x75c0532d286d, 0xaf9cf4f6106e590f, 0x88ed83028cabf700, 0x3557060372446deb}},
		{0x2ad4, [4]uint64{0xded6914e3ae6, 0xd4f8159a23aae86c, 0xf64a8ce74e44331c, 0x3560e687c856c720}},
		{0x0c62, [4]uint64{0x87c3130b67d8, 0xfaac62cdda39b3b2, 0x85401d1024835ba3, 0xe171990737f11a64}},
		{0x9eaf, [4]uint64{0x12741f2c1255, 0x2aa2b6c06ce19819, 0x9c73e7afbd6724a8, 0x6467b5d1d40d193c}},
		{0xd83e, [4]uint64{0xc33607a4edb1, 0xd77058dc257e435d, 0x9ca4735f5cce2b39, 0x5fa135366a5606a2}},
		{0xee6c, [4]uint64{0xe3ce108897fd, 0xf64c3d15226a010d, 0x4354ff6b4be292a8, 0xa0ed52ada22e50e}},
		{0xf859, [4]uint64{0x75ce27a56689, 0xa82243e83ef5b64e, 0x535580dfe3c2fbe, 0x9e441064af995019}},
		{0x5ca6, [4]uint64{0x47bd53079149, 0x5eabb51dd6eda4e1, 0xb58d64c56f58050e, 0x6224f98940183b41}},
		{0x282c, [4]uint64{0x72d02544ae8d, 0x2433b2894fb0fce5, 0x70b34197e326447b, 0x89016279c4f461}},
		{0x7f6c, [4]uint64{0xc0239c4f4357, 0xab562c9e1402ff4b, 0xd1a3734aacdfd9ac, 0xd63d1674e42f7de0}},
		{0x0941, [4]uint64{0xbbbf2d5a2e5d, 0xe6dba26ef4a01230, 0x58dbe21cbf83ef4d, 0x84ccd94f51afba7}},
	},
	{
		{0xdd2a, [4]uint64{0x7bae644c5fd6, 0xeb7e8c4bccdd52e0, 0x47694875d6b8b1a2, 0x550e2e2eb8cea8d6}},
		{0x8b4c, [4]uint64{0xbd904cf050a8, 0xcdcff59002c5cb96, 0x7bde55701d9dff7b, 0x53d55a276d2c98e1}},
		{0x57f3, [4]uint64{0x81a0a714b97f, 0xda8e759e04ff0876, 0xfdec498d13887bf, 0xa77ab7af6663edc}},
		{0x8c38, [4]uint64{0x91dc457dee57, 0xa8f670ef290a8db9, 0xbcb3f39f79a4b71a, 0xa700e6d19de58280}},
		{0xdb89, [4]uint64{0xd60625451943, 0x128918b3ccd5318d, 0xe48600d6649d525c, 0xb16555a568a6dd98}},
		{0xa5e6, [4]uint64{0xd0a9ecd5dda4, 0xfaccd8ced0c2c1ac, 0x25864f143b89a261, 0xcbb6f20f6f1d3ff7}},
		{0xd27f, [4]uint64{0x71e8c5ddcca9, 0x920eb5d502e10f57, 0xb8893b3ef5b9bca8, 0x78da93200df1c09c}},
		{0x0d3c, [4]uint64{0xb8e33c33bfea, 0xd1506b65e3734725, 0x75b33a274908ab3d, 0x6b9b2d0205091053}},
		{0x8154, [4]uint64{0x6f478d1fc3a9, 0x8139f0c608142e3e, 0xe7addfabf237b3ea, 0xb4ce0c37ed05b8c4}},
		{0x35cd, [4]uint64{0xcbdb7f930448, 0x6a7c33dfba1d18fd, 0x921949d714e858d2, 0xaae2b9483e96b09d}},
		{0x6486, [4]uint64{0xde6e1668526a, 0xdb0079678a0a09d2, 0x45c5321b8b85606c, 0x4e77b46a58cbc571}},
		{0x9424, [4]uint64{0x216b3d3f60c6, 0xdfb37882612808cd, 0x6f56ae6ed7597e67, 0xfc8539ef8bf7bab4}},
		{0xf592, [4]uint64{0x5763d7e63588, 0x2e72c8662c333575, 0x71dc3e74f89fa90e, 0xb2ddbf21d2c370b3}},
		{0xa817, [4]uint64{0xf1f97e078f1, 0x1356f5029a4ba47f, 0x683c1823c371d6f7, 0x5c199189b41c5803}},
		{0x9bbe, [4]uint64{0x25fa4af192dc, 0xc143dc116ffe5aa5, 0x3060e9f2837e86cd, 0xccc5880acf57f5f4}},
		{0xabf7, [4]uint64{0xee864a2d7cb4, 0xed48baccbe281b93, 0xbfd87aeccf43a52b, 0x310f2752fa97da05}},
		{0x8ce5, [4]uint64{0xe32def878871, 0x91e6cef44850ac6, 0x3d5a7c004cc19057, 0x7f2e13ac9b9d0cd7}},
	},
	{
		{0xcbe8, [4]uint64{0xdcf13cd54372, 0x1247430672315226, 0xe025cd6a935e31d8, 0x7d56fd1ddda64bcc}},
		{0xeb5d, [4]uint64{0x8976f2bf66df, 0x814d9563cfb0f28, 0x54f35b7b809ea5ec, 0x6d2c3767467fb315}},
		{0x8bbd, [4]uint64{0x24e088fd5796, 0x42eb97e6b2492a38, 0xbaca84ed0d58087b, 0x366ed9a92b662b82}},
		{0xb6a9, [4]uint64{0xc383281b9824, 0x3435d1d9c620cd8a, 0xca4fca7272fe0a59, 0x4d3c193e496de4a}},
		{0xf3d1, [4]uint64{0xce1f37a4c3a2, 0xac042c016e40253e, 0xbdf106c69466de1b, 0x12c32ae042ef5a53}},
		{0xfb30, [4]uint64{0x1ae9ee1a8e7f, 0x8e2d148c921e7037, 0x91e56c63bb72eb53, 0xaeace428ec28e61d}},
		{0xc6e0, [4]uint64{0xd5340f46a95d, 0x14ea7fb97c8bfbcb, 0x42831761bb75a835, 0xb4f916ce4443a274}},
		{0xfc1b, [4]uint64{0x68386d8a8d43, 0x686092ab927d5440, 0x693d8d15d058a332, 0xcf3e45ac5b9ec3ee}},
		{0x50d1, [4]uint64{0xda78a05daef6, 0xc2dfd71f1d69b1a6, 0xdae125415370a146, 0x6e81e97bb019a006}},
		{0xa1cf, [4]uint64{0x79227f4a46e3, 0xaf45f44b421ba85, 0x8c8ad3e895d802a3, 0x30c090fe9d2b0c53}},
		{0xcee3, [4]uint64{0xbb9b51cc3cc3, 0xea6735f6065dc25e, 0xf3ffd92f7b562011, 0xbe09fb3ad76f6808}},
		{0x88e1, [4]uint64{0x57a6ae924856, 0x96d4534b787cefbb, 0x756ad518bdec6722, 0x587f684d3b42fdd3}},
		{0xa8c6, [4]uint64{0xa092fbdc9f87, 0x66e3f1ddf438d997, 0x1d393e3daa93381, 0xf5924d73265f6845}},
		{0xe888, [4]uint64{0xb4c5920ad2d7, 0x4db815a17a009ad4, 0x34c459436bad4c33, 0x16b9e5d3ae07f8ab}},
		{0xb9f0, [4]uint64{0x5da448a5ecb8, 0xb068b32cbd7f212e, 0x70353ad00b99fa3e, 0xb5035a7a0f3a2505}},
		{0x0a69, [4]uint64{0x5e3e91732168, 0x7ba84a3b6006514b, 0xde5be8eaef6e7fc9, 0xf9b56a999619d475}},
		{0x4d82, [4]uint64{0x8cd47a4cdc75, 0x6003b19ee3793677, 0xb39bbcb6527746dd, 0x22310b9c05e9cd1b}},
	},
}

// TestGoldenSignatures pins the hash function itself: every golden path
// must produce its recorded index and signature through HashString and
// through a resume split at every byte offset.
func TestGoldenSignatures(t *testing.T) {
	for i, seed := range goldenSeeds {
		k := NewKey(seed)
		if len(goldenSums[i]) != len(goldenPaths) {
			t.Fatalf("seed %#x: %d golden sums for %d paths", seed, len(goldenSums[i]), len(goldenPaths))
		}
		for j, p := range goldenPaths {
			want := goldenSums[i][j]
			if idx, sg := k.HashString(p); idx != want.idx || sg.W != want.w {
				t.Errorf("seed %#x path %d (%d bytes): HashString = %#04x %v, want %#04x %x", seed, j, len(p), idx, sg, want.idx, want.w)
				continue
			}
			for cut := 0; cut <= len(p); cut++ {
				st := k.NewState().AppendString(p[:cut]).AppendString(p[cut:])
				idx, sg := st.Sum()
				if idx != want.idx || sg.W != want.w {
					t.Errorf("seed %#x path %d: resume at byte %d = %#04x %v, want %#04x %x", seed, j, cut, idx, sg, want.idx, want.w)
					break
				}
			}
		}
	}
}
