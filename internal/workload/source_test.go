package workload

import (
	"reflect"
	"strings"
	"testing"

	"github.com/opera-net/opera/internal/eventsim"
)

// Drain materializes a source into a flow list, the inverse of FromSpecs;
// draining an unbounded source does not terminate, so bound it with Take
// first.
func Drain(s Source) []FlowSpec {
	var out []FlowSpec
	for {
		spec, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, spec)
	}
}

func testPoissonCfg(seed int64) PoissonConfig {
	return PoissonConfig{
		NumHosts: 64,
		Load:     0.1,
		Duration: 5 * eventsim.Millisecond,
		Seed:     seed,
	}
}

// testPoisson is the Poisson workload of testPoissonCfg: a one-component
// Mix of Hadoop sizes.
func testPoisson(seed int64) Source {
	return Mix(testPoissonCfg(seed), MixComponent{Dist: Hadoop(), Weight: 1})
}

// The Poisson source is a pure function of its seed — same seed, same
// flows in the same order; another seed, another stream — since the figure
// sweeps run on it and their CSVs are pinned.
func TestPoissonSourceMatchesMaterialized(t *testing.T) {
	var prev []FlowSpec
	for _, seed := range []int64{1, 2, 7} {
		want := Drain(testPoisson(seed))
		got := Drain(testPoisson(seed))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: two drains of the source diverge (%d vs %d flows)", seed, len(want), len(got))
		}
		if len(want) == 0 {
			t.Fatalf("seed %d: empty workload", seed)
		}
		if reflect.DeepEqual(want, prev) {
			t.Fatalf("seed %d: same stream as the previous seed", seed)
		}
		prev = want
	}
}

// The Poisson workload is a one-component Mix, and that must not move a
// single draw: the first 200 flows of two configurations, each {src, dst,
// bytes, arrival}, as the stand-alone Poisson generator that preceded it
// yielded them.
func TestPoissonSourceStreamIsPinned(t *testing.T) {
	for _, tc := range []struct {
		cfg  PoissonConfig
		dist *FlowSizeDist
		want [][4]int64
	}{
		{PoissonConfig{NumHosts: 64, Load: 0.1, Duration: eventsim.Second, Seed: 1}, Websearch(), [][4]int64{
			{15, 7, 57304, 117285}, {6, 57, 10946, 126175}, {36, 6, 2266255, 162575}, {49, 24, 64141, 205506},
			{21, 37, 21563, 232085}, {26, 40, 3545753, 255265}, {43, 47, 20541, 661563}, {55, 53, 1544, 908844},
			{15, 37, 3386, 987473}, {55, 61, 30234, 1123203}, {18, 10, 27496, 1141261}, {19, 30, 27898, 1453185},
			{25, 21, 29651, 2665379}, {23, 40, 3128, 3394818}, {58, 39, 31819, 3478261}, {28, 42, 55398, 3733630},
			{2, 31, 6230060, 4295197}, {40, 42, 8615073, 4330818}, {38, 9, 124486, 4540940}, {52, 31, 50692, 5231371},
			{29, 9, 33583, 5234106}, {19, 3, 612831, 5689778}, {24, 2, 85727, 5892868}, {7, 24, 6999, 5931984},
			{62, 1, 299528, 5962008}, {61, 7, 2645676, 6237326}, {53, 62, 71226, 6237463}, {41, 63, 1030, 6290935},
			{1, 3, 117539, 6291571}, {54, 62, 200534, 6672789}, {47, 34, 391823, 6675526}, {14, 27, 2281979, 6803264},
			{55, 53, 12309842, 6948208}, {53, 56, 10135, 7705995}, {15, 24, 313030, 7774243}, {60, 0, 48051, 8104590},
			{26, 43, 172222, 8246734}, {7, 60, 8875578, 8401301}, {15, 49, 48306, 8995856}, {34, 55, 477269, 9021708},
			{58, 14, 10259, 9030418}, {16, 63, 8293, 9055078}, {14, 7, 75172, 9090307}, {10, 33, 479029, 9702446},
			{63, 6, 1602, 10425517}, {47, 48, 38274, 10439208}, {24, 23, 110975, 10537600}, {18, 29, 35214, 10651575},
			{52, 47, 29090672, 10927750}, {0, 53, 4113, 11083364}, {9, 46, 3122913, 11121078}, {58, 55, 7822163, 11483994},
			{3, 15, 59575, 11508254}, {44, 3, 50034, 11562656}, {28, 19, 71618, 11926112}, {43, 49, 55465, 12053766},
			{52, 10, 1569258, 12076871}, {36, 34, 75255, 12087502}, {44, 4, 13288338, 12124898}, {8, 12, 5709416, 12960777},
			{45, 28, 1431379, 12984880}, {29, 61, 161857, 13058503}, {45, 37, 17618349, 13083022}, {22, 32, 8707284, 13391847},
			{0, 20, 2712142, 13731840}, {27, 37, 1137057, 13784590}, {53, 38, 1333, 13996191}, {32, 8, 56274, 14180258},
			{37, 20, 517173, 14406372}, {16, 40, 1426, 14482015}, {35, 21, 32357, 14533330}, {26, 55, 4656, 14534819},
			{7, 17, 25756, 15008952}, {31, 13, 38955, 15073270}, {59, 8, 6295, 15236324}, {37, 38, 33943, 15309365},
			{34, 58, 9876611, 15387144}, {35, 34, 30339, 16211112}, {58, 11, 386067, 16248833}, {7, 51, 70410, 16374174},
			{16, 12, 51399, 16622532}, {36, 44, 28649, 16951771}, {2, 21, 32449, 17282208}, {22, 41, 614206, 17352866},
			{13, 58, 67140, 17879992}, {63, 37, 1342710, 18089718}, {9, 5, 6434178, 18165890}, {26, 12, 4451, 18384423},
			{2, 29, 5354, 18633849}, {31, 33, 6494571, 19141457}, {55, 25, 14437, 19198908}, {42, 31, 24532, 19312537},
			{44, 21, 2911779, 19440172}, {0, 8, 4971287, 19548307}, {46, 10, 2191, 19676200}, {12, 21, 1868, 19730344},
			{43, 10, 9101966, 19859008}, {22, 60, 1479206, 20016610}, {46, 28, 17962839, 20209248}, {61, 14, 1862412, 20319544},
			{24, 60, 504633, 20599293}, {39, 20, 77269, 20644823}, {30, 43, 996612, 20753468}, {6, 49, 284980, 20778226},
			{59, 11, 7731322, 20829364}, {27, 63, 87654, 21571148}, {11, 25, 1264484, 21641072}, {9, 31, 8454438, 22231021},
			{13, 46, 1147788, 22268712}, {27, 14, 754799, 22364485}, {54, 50, 1624178, 22532067}, {26, 43, 19605, 22548855},
			{31, 56, 7492, 23040669}, {63, 58, 1720751, 23140672}, {14, 26, 48482, 23147291}, {53, 1, 60447, 23148093},
			{38, 17, 2199565, 23218967}, {28, 42, 69387, 23272743}, {24, 41, 1908111, 23526316}, {5, 6, 53792, 23557688},
			{7, 12, 124592, 23570378}, {15, 21, 5014864, 23630023}, {16, 42, 593782, 24003233}, {4, 35, 1770983, 24141022},
			{34, 17, 234734, 24914624}, {42, 15, 24185, 25426337}, {14, 61, 5477081, 25428471}, {24, 48, 55787, 25504292},
			{23, 30, 77742, 25573558}, {20, 58, 127162, 25591631}, {45, 27, 6683007, 25686582}, {56, 27, 64967, 25724236},
			{44, 11, 1839113, 25807794}, {8, 13, 78031, 25864789}, {24, 42, 42482, 26121742}, {28, 10, 48611, 26157559},
			{42, 4, 33004, 26227972}, {35, 1, 148915, 26702243}, {17, 57, 45371, 27000963}, {0, 13, 15125, 27131171},
			{43, 49, 12249, 27160160}, {4, 28, 15968, 27165531}, {42, 25, 24620, 27488378}, {15, 4, 71796, 27779021},
			{11, 49, 5828455, 27897312}, {50, 22, 7554433, 27948659}, {22, 2, 4228, 27969675}, {60, 38, 1968981, 28066365},
			{8, 42, 32918, 28572221}, {57, 41, 12488, 28831056}, {54, 25, 260690, 28908040}, {42, 46, 6783829, 28989633},
			{2, 14, 2747, 29560431}, {7, 49, 2168984, 30099247}, {17, 34, 2173, 30406050}, {27, 9, 64937, 30606242},
			{28, 38, 227561, 30727322}, {23, 60, 919217, 30797240}, {52, 62, 1851024, 31036620}, {8, 50, 1516, 31266261},
			{34, 41, 1667043, 31283598}, {58, 61, 21355, 31298379}, {9, 53, 28584, 31340074}, {10, 49, 143209, 31449744},
			{19, 9, 14788, 31805240}, {63, 12, 24615, 31988368}, {6, 17, 25439, 31994867}, {8, 18, 10085, 32006755},
			{18, 55, 235277, 32039569}, {53, 17, 1999272, 32191775}, {5, 59, 71321, 32211051}, {15, 7, 1803939, 32371543},
			{12, 60, 256604, 32473259}, {23, 8, 5548306, 32542961}, {50, 11, 2725965, 32666520}, {39, 32, 3352, 32842609},
			{4, 27, 66447, 33651314}, {34, 59, 510315, 33657093}, {4, 59, 20200, 33767639}, {27, 4, 75494, 33793368},
			{9, 6, 12932705, 33837362}, {23, 48, 1269293, 33854012}, {62, 56, 91933, 34216624}, {60, 21, 38599, 34408329},
			{50, 11, 29729, 34787881}, {22, 56, 407512, 35026265}, {22, 8, 494728, 35038374}, {8, 32, 14132, 35061486},
			{39, 33, 1524404, 35342704}, {52, 26, 4583, 35696766}, {21, 22, 11246, 35750048}, {11, 58, 7888350, 35906669},
			{35, 4, 1313042, 36229333}, {40, 22, 2147108, 36234545}, {37, 3, 40334, 36890953}, {0, 9, 59323, 36939452},
			{52, 47, 128039, 36997266}, {17, 30, 2544097, 37010598}, {53, 3, 1198562, 37077790}, {26, 16, 1331438, 37239376},
		}},
		{PoissonConfig{NumHosts: 648, Load: 0.5, Duration: eventsim.Second, Seed: 2}, Hadoop(), [][4]int64{
			{474, 156, 1338, 6531}, {134, 298, 5101, 33133}, {552, 470, 1291672, 45940}, {208, 236, 3541809, 46478},
			{576, 409, 2566003, 47753}, {258, 533, 80581, 60853}, {183, 391, 28828, 82944}, {298, 387, 31481, 97193},
			{487, 571, 448947, 112236}, {445, 393, 37813, 122440}, {20, 104, 59230, 127328}, {621, 344, 61155, 135781},
			{83, 169, 738, 198244}, {412, 427, 821, 202757}, {561, 219, 168704, 218200}, {221, 444, 1331, 224910},
			{412, 374, 1144, 241953}, {158, 250, 213410, 261819}, {103, 89, 8221, 268060}, {126, 37, 100644, 276550},
			{606, 528, 552364, 296346}, {210, 287, 361063, 304555}, {506, 494, 74715, 305150}, {592, 551, 147191, 319965},
			{567, 510, 14121, 340722}, {92, 52, 25538, 361384}, {119, 380, 3054, 390702}, {528, 388, 625343, 397585},
			{399, 72, 285, 417260}, {122, 21, 1523, 422189}, {242, 604, 34102, 427038}, {18, 191, 18970258, 472599},
			{150, 456, 9938, 474534}, {584, 474, 70908, 480288}, {71, 187, 185830, 511586}, {539, 365, 86443, 512843},
			{395, 575, 18800, 523542}, {377, 485, 247077, 528477}, {248, 191, 326037, 541025}, {140, 532, 5598402, 548006},
			{89, 520, 240, 560969}, {219, 557, 23901, 566256}, {229, 456, 45718, 611113}, {530, 324, 107391, 633784},
			{465, 445, 105, 636966}, {35, 535, 6000, 666067}, {112, 468, 327, 674506}, {127, 524, 424046, 716023},
			{391, 617, 268291, 718127}, {293, 286, 7311, 718634}, {246, 249, 108185, 752919}, {29, 505, 164660, 753621},
			{612, 200, 95100, 754500}, {121, 109, 189038, 772990}, {253, 416, 16497, 777486}, {49, 644, 975566, 795925},
			{544, 26, 399990, 801055}, {421, 480, 108448, 824648}, {102, 434, 1021228, 855451}, {50, 627, 8472, 857274},
			{86, 566, 13748, 873793}, {247, 431, 4817, 879705}, {464, 16, 291, 900619}, {36, 213, 63713, 906709},
			{465, 37, 10166, 908357}, {25, 48, 301, 930426}, {196, 64, 15494, 937226}, {348, 308, 3794468, 965168},
			{352, 105, 337348, 990899}, {393, 128, 265, 996422}, {60, 72, 48776, 1004359}, {33, 630, 60485, 1047975},
			{420, 436, 83011, 1057042}, {333, 371, 2994, 1063192}, {551, 352, 3290, 1082913}, {185, 20, 124120, 1097734},
			{496, 330, 295368, 1098264}, {252, 600, 236406, 1106706}, {45, 248, 26536505, 1125114}, {480, 544, 2348, 1128948},
			{246, 626, 1540582, 1135830}, {151, 451, 1854, 1146997}, {598, 143, 348, 1152091}, {24, 49, 238, 1182482},
			{264, 621, 7989105, 1187315}, {50, 180, 53859, 1204168}, {447, 260, 65128, 1219757}, {172, 491, 192166, 1219778},
			{151, 306, 429, 1233675}, {181, 145, 9623246, 1240585}, {78, 574, 16003, 1247174}, {15, 480, 46905191, 1326331},
			{269, 407, 108590, 1345340}, {252, 504, 21632, 1391430}, {563, 165, 118, 1426803}, {364, 638, 246499, 1457661},
			{78, 621, 54790, 1462483}, {136, 317, 275, 1490039}, {300, 330, 1296298, 1491887}, {114, 55, 5409, 1499594},
			{493, 305, 775, 1508287}, {134, 483, 24886, 1512688}, {435, 387, 219076, 1549987}, {19, 555, 399435, 1565846},
			{252, 5, 1334, 1581799}, {581, 226, 194525, 1586674}, {319, 519, 2116, 1587227}, {22, 435, 1037229, 1589275},
			{84, 23, 2689614, 1590151}, {89, 201, 1043, 1599907}, {185, 145, 328, 1606342}, {70, 570, 983835, 1608431},
			{594, 366, 3562490, 1616664}, {326, 621, 214, 1619055}, {569, 150, 7286, 1619657}, {486, 6, 38188862, 1628069},
			{572, 279, 297515, 1643973}, {21, 23, 1110, 1646796}, {93, 16, 13388, 1647344}, {308, 152, 216541, 1657429},
			{175, 569, 174972, 1661159}, {272, 22, 1365276, 1667185}, {533, 301, 270852, 1685781}, {90, 555, 379679, 1701453},
			{277, 507, 20151, 1705910}, {530, 359, 3660, 1735205}, {94, 24, 84450, 1751371}, {512, 151, 164558, 1752321},
			{132, 98, 3338, 1760565}, {2, 463, 17832427, 1767536}, {561, 46, 3449, 1780483}, {119, 464, 123681, 1789381},
			{552, 469, 1360538, 1791866}, {82, 234, 24171, 1801554}, {416, 302, 946947, 1808680}, {132, 647, 26993, 1809406},
			{123, 602, 1010, 1882052}, {357, 119, 3970838, 1899500}, {489, 265, 849406, 1909536}, {75, 160, 772000, 1928834},
			{593, 320, 8833, 1931147}, {160, 445, 532924, 1940402}, {127, 565, 9033710, 1948702}, {80, 492, 1756, 1969582},
			{425, 401, 2766, 1984805}, {399, 188, 318, 1988577}, {349, 86, 9144, 1995077}, {425, 449, 52660, 1997477},
			{202, 46, 176674, 2029227}, {235, 312, 228201, 2071575}, {428, 469, 6449, 2073967}, {180, 226, 230279, 2095514},
			{563, 634, 2560, 2096568}, {521, 175, 567266, 2116736}, {35, 215, 1467918, 2132716}, {598, 313, 1583, 2133037},
			{52, 76, 165648, 2149027}, {589, 220, 118267, 2218886}, {481, 504, 188829, 2223676}, {602, 512, 705758, 2230843},
			{14, 615, 974503, 2232600}, {356, 467, 1054806, 2239042}, {475, 316, 2083183, 2239387}, {346, 609, 292, 2252048},
			{633, 525, 487355, 2268362}, {370, 217, 88565, 2270669}, {378, 519, 226486, 2292302}, {614, 335, 124809, 2292314},
			{332, 35, 604347, 2297149}, {439, 62, 7269, 2303582}, {149, 343, 175049, 2346902}, {428, 466, 50189, 2352556},
			{155, 584, 110005, 2377593}, {509, 420, 36373, 2378300}, {37, 157, 2728, 2401519}, {166, 284, 242769707, 2406498},
			{640, 56, 219, 2431104}, {286, 86, 637, 2449289}, {256, 389, 121591, 2454609}, {583, 521, 95526, 2458835},
			{246, 336, 50073, 2492436}, {405, 100, 226908, 2542939}, {245, 158, 465, 2557442}, {289, 177, 548, 2582083},
			{322, 189, 72014385, 2646692}, {55, 565, 1613352, 2648307}, {492, 289, 110, 2661769}, {587, 491, 3048, 2672376},
			{124, 581, 317058, 2679537}, {77, 21, 195311, 2681486}, {289, 435, 110, 2695512}, {469, 614, 248629, 2696156},
			{582, 251, 251013, 2710748}, {358, 438, 505, 2713336}, {605, 645, 58870, 2717779}, {195, 187, 362, 2730767},
			{590, 349, 2460, 2745824}, {605, 438, 287408, 2753040}, {172, 151, 1486, 2758777}, {49, 204, 14114, 2776972},
		}},
	} {
		got := Drain(Take(Mix(tc.cfg, MixComponent{Dist: tc.dist, Weight: 1}), len(tc.want)))
		if len(got) != len(tc.want) {
			t.Fatalf("%d hosts: %d flows, want %d", tc.cfg.NumHosts, len(got), len(tc.want))
		}
		for i, w := range tc.want {
			want := FlowSpec{Src: int(w[0]), Dst: int(w[1]), Bytes: w[2], Arrival: eventsim.Time(w[3])}
			if got[i] != want {
				t.Fatalf("%d hosts: flow %d = %+v, want %+v", tc.cfg.NumHosts, i, got[i], want)
			}
		}
	}
}

// Sources yield nondecreasing arrivals; FromSpecs establishes the order
// for unsorted inputs while preserving input order among ties.
func TestFromSpecsOrdersByArrival(t *testing.T) {
	specs := []FlowSpec{
		{Src: 0, Dst: 1, Bytes: 1, Arrival: 300},
		{Src: 1, Dst: 2, Bytes: 2, Arrival: 100},
		{Src: 2, Dst: 3, Bytes: 3, Arrival: 100},
		{Src: 3, Dst: 4, Bytes: 4, Arrival: 0},
	}
	got := Drain(FromSpecs(specs))
	wantOrder := []int{3, 1, 2, 0} // by arrival, ties in input order
	for i, wi := range wantOrder {
		if got[i] != specs[wi] {
			t.Fatalf("position %d: got %+v, want %+v", i, got[i], specs[wi])
		}
	}
	// The input slice must be untouched (it may be shared across
	// concurrently running scenarios).
	if specs[0].Arrival != 300 || specs[3].Arrival != 0 {
		t.Fatal("FromSpecs mutated its input")
	}

	// Four specs never leave the library sort's insertion-sort block; a
	// few hundred drawn from a handful of arrival times put long runs of
	// ties through its partitioning, where only FromSpecs' index tie-break
	// keeps input order. Bytes carries the input index.
	arrivals := []eventsim.Time{700, 0, 300, 300, 1200, 0, 50}
	many := make([]FlowSpec, 500)
	for i := range many {
		many[i] = FlowSpec{Src: i % 7, Dst: i % 5, Bytes: int64(i), Arrival: arrivals[(i*i+i/3)%len(arrivals)]}
	}
	got = Drain(FromSpecs(many))
	if len(got) != len(many) {
		t.Fatalf("FromSpecs yielded %d of %d specs", len(got), len(many))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.Arrival > b.Arrival || (a.Arrival == b.Arrival && a.Bytes >= b.Bytes) {
			t.Fatalf("position %d: %+v before %+v — not a stable sort by arrival", i, a, b)
		}
		if b != many[b.Bytes] {
			t.Fatalf("position %d: %+v is not input spec %d", i, b, b.Bytes)
		}
	}
}

// Take keeps a prefix of the stream, and a component's MaxFlowBytes clamps
// sizes without moving a draw: the capped stream is the uncapped one with
// every size above the cap cut to it.
func TestTakeUntilCapBytes(t *testing.T) {
	all := Drain(testPoisson(1))
	if got := Drain(Take(testPoisson(1), 5)); len(got) != 5 || !reflect.DeepEqual(got, all[:5]) {
		t.Fatalf("Take(5) = %d flows", len(got))
	}
	capped := Drain(Mix(testPoissonCfg(1), MixComponent{Dist: Hadoop(), Weight: 1, MaxFlowBytes: 10_000}))
	if len(capped) != len(all) {
		t.Fatalf("capped stream has %d flows, uncapped %d", len(capped), len(all))
	}
	clamped := 0
	for i, f := range capped {
		want := all[i]
		if want.Bytes > 10_000 {
			want.Bytes = 10_000
			clamped++
		}
		if f != want {
			t.Fatalf("flow %d = %+v, want %+v", i, f, want)
		}
	}
	if clamped == 0 {
		t.Fatal("no flow exceeded the cap: the test shows nothing")
	}
}

func TestTagAndBulkSource(t *testing.T) {
	for _, f := range Drain(TagSource("x", BulkSource(Take(testPoisson(1), 10)))) {
		if f.Tag != "x" || !f.Bulk {
			t.Fatalf("wrapper lost metadata: %+v", f)
		}
	}
}

// Mix assigns arrivals to components roughly by weight, carries their
// tags, and is deterministic per seed.
func TestMixWeightsAndDeterminism(t *testing.T) {
	cfg := testPoissonCfg(3)
	cfg.Duration = 20 * eventsim.Millisecond
	mk := func() Source {
		return Mix(cfg,
			MixComponent{Dist: Hadoop(), Weight: 3, Tag: "heavy"},
			MixComponent{Dist: Websearch(), Weight: 1, Tag: "light", Bulk: true},
		)
	}
	flows := Drain(mk())
	if !reflect.DeepEqual(flows, Drain(mk())) {
		t.Fatal("Mix not deterministic per seed")
	}
	var heavy, light int
	for _, f := range flows {
		switch f.Tag {
		case "heavy":
			heavy++
			if f.Bulk {
				t.Fatal("heavy component should not be bulk-tagged")
			}
		case "light":
			light++
			if !f.Bulk {
				t.Fatal("light component lost its bulk tag")
			}
		default:
			t.Fatalf("untagged flow %+v", f)
		}
	}
	if heavy == 0 || light == 0 {
		t.Fatalf("component counts heavy=%d light=%d", heavy, light)
	}
	ratio := float64(heavy) / float64(light)
	if ratio < 2 || ratio > 4.5 {
		t.Fatalf("weight ratio = %.2f, want ≈3", ratio)
	}
}

func TestIncast(t *testing.T) {
	flows := Drain(Incast(IncastConfig{
		NumHosts: 64, Fanin: 8, Bytes: 10_000,
		Period: eventsim.Millisecond, Bursts: 3, Seed: 1,
	}))
	if len(flows) != 24 {
		t.Fatalf("%d flows, want 3 bursts × 8", len(flows))
	}
	for b := 0; b < 3; b++ {
		burst := flows[b*8 : (b+1)*8]
		dst := burst[0].Dst
		seen := map[int]bool{}
		for _, f := range burst {
			// Bursts fire at Period, 2·Period, … (burst b is 1-indexed).
			if f.Arrival != eventsim.Time(b+1)*eventsim.Millisecond {
				t.Fatalf("burst %d arrival %v", b, f.Arrival)
			}
			if f.Dst != dst || f.Src == dst || seen[f.Src] {
				t.Fatalf("burst %d malformed flow %+v", b, f)
			}
			seen[f.Src] = true
		}
	}
}

func TestReplay(t *testing.T) {
	trace := `# comment
0 0 1 1000 web
500 1 2 2000
1500 2 3 3000 shuffle bulk
`
	rs := Replay(strings.NewReader(trace))
	flows := Drain(rs)
	if rs.Err() != nil {
		t.Fatal(rs.Err())
	}
	want := []FlowSpec{
		{Src: 0, Dst: 1, Bytes: 1000, Arrival: 0, Tag: "web"},
		{Src: 1, Dst: 2, Bytes: 2000, Arrival: 500},
		{Src: 2, Dst: 3, Bytes: 3000, Arrival: 1500, Tag: "shuffle", Bulk: true},
	}
	if !reflect.DeepEqual(flows, want) {
		t.Fatalf("replay = %+v", flows)
	}
}

// malformedTraces each end a replay in error at the line they name.
var malformedTraces = []string{
	"0 0 1\n",                    // too few fields
	"0 0 1 -5\n",                 // bad bytes
	"x 0 1 100\n",                // bad arrival
	"0 3 3 100\n",                // self-flow
	"500 0 1 100\n100 1 2 100\n", // arrivals regress
	"0 0 1 100 t blk\n",          // sixth field not "bulk"
	"0 0 1 100 t Bulk\n",         // "bulk" is lower case
	"0 0 1 100 t bulk extra\n",   // seventh field
}

func TestReplayRejectsMalformedAndUnordered(t *testing.T) {
	for _, trace := range malformedTraces {
		rs := Replay(strings.NewReader(trace))
		Drain(rs)
		if rs.Err() == nil || !strings.Contains(rs.Err().Error(), "trace line") {
			t.Fatalf("trace %q: got error %v, want one naming the line", trace, rs.Err())
		}
	}
}

// FuzzReplay: any trace bytes replay without a panic, and what a replay
// yields obeys the grammar's contract for a 64-host cluster: hosts in
// range and distinct, a positive size, nondecreasing arrivals, and once
// Next returns false it keeps returning false.
func FuzzReplay(f *testing.F) {
	f.Add("# comment\n0 0 1 1000 web\n500 1 2 2000\n1500 2 3 3000 shuffle bulk\n")
	f.Add("0 0 63 1\n0 63 64 1\n")
	for _, trace := range malformedTraces {
		f.Add(trace)
	}
	f.Fuzz(func(t *testing.T, trace string) {
		rs := Replay(strings.NewReader(trace))
		rs.NumHosts = 64
		var last eventsim.Time
		for {
			spec, ok := rs.Next()
			if !ok {
				break
			}
			if spec.Src < 0 || spec.Src >= 64 || spec.Dst < 0 || spec.Dst >= 64 || spec.Src == spec.Dst || spec.Bytes <= 0 {
				t.Fatalf("yielded %+v", spec)
			}
			if spec.Arrival < last {
				t.Fatalf("arrival %v after %v", spec.Arrival, last)
			}
			last = spec.Arrival
		}
		if _, ok := rs.Next(); ok {
			t.Fatal("Next yielded a flow after returning false")
		}
	})
}
