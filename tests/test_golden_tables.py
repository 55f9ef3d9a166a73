"""Golden bytes of the `parsearch bench` and `parsearch iasim` tables.

The expected text below was captured from the command-line harness and is
compared byte for byte, so a change to how either table is built or written
shows here. Bench's speedup and wall_time cells vary between runs: a
non-empty one is masked as `*`, and an empty one must stay empty.
"""

import json

import pytest

from parsearch.cli import main
from parsearch.metrics import CSV_COLUMNS

IASIM_DISCRETE = """\
# schema 1
# b=2.0 worst_bound=4.0 average_bound=2.6666666666666665
W_plus,b,model,total_cost,optimal_cost,iterations,ratio
1,2.0,discrete,1.0,1,1,1.0
2,2.0,discrete,3.0,2,2,1.5
3,2.0,discrete,7.0,3,3,2.3333333333333335
4,2.0,discrete,7.0,4,3,1.75
5,2.0,discrete,15.0,5,4,3.0
6,2.0,discrete,15.0,6,4,2.5
7,2.0,discrete,15.0,7,4,2.142857142857143
8,2.0,discrete,15.0,8,4,1.875
9,2.0,discrete,31.0,9,5,3.4444444444444446
10,2.0,discrete,31.0,10,5,3.1
11,2.0,discrete,31.0,11,5,2.8181818181818183
12,2.0,discrete,31.0,12,5,2.5833333333333335
13,2.0,discrete,31.0,13,5,2.3846153846153846
14,2.0,discrete,31.0,14,5,2.2142857142857144
15,2.0,discrete,31.0,15,5,2.066666666666667
16,2.0,discrete,31.0,16,5,1.9375
17,2.0,discrete,63.0,17,6,3.7058823529411766
18,2.0,discrete,63.0,18,6,3.5
19,2.0,discrete,63.0,19,6,3.3157894736842106
20,2.0,discrete,63.0,20,6,3.15
21,2.0,discrete,63.0,21,6,3.0
22,2.0,discrete,63.0,22,6,2.8636363636363638
23,2.0,discrete,63.0,23,6,2.739130434782609
24,2.0,discrete,63.0,24,6,2.625
25,2.0,discrete,63.0,25,6,2.52
26,2.0,discrete,63.0,26,6,2.423076923076923
27,2.0,discrete,63.0,27,6,2.3333333333333335
28,2.0,discrete,63.0,28,6,2.25
29,2.0,discrete,63.0,29,6,2.1724137931034484
30,2.0,discrete,63.0,30,6,2.1
31,2.0,discrete,63.0,31,6,2.032258064516129
32,2.0,discrete,63.0,32,6,1.96875
33,2.0,discrete,127.0,33,7,3.8484848484848486
34,2.0,discrete,127.0,34,7,3.735294117647059
35,2.0,discrete,127.0,35,7,3.6285714285714286
36,2.0,discrete,127.0,36,7,3.5277777777777777
37,2.0,discrete,127.0,37,7,3.4324324324324325
38,2.0,discrete,127.0,38,7,3.3421052631578947
39,2.0,discrete,127.0,39,7,3.2564102564102564
40,2.0,discrete,127.0,40,7,3.175
"""

IASIM_CONTINUOUS = """\
# schema 1
# b=1.5 worst_bound=4.499999999999999 average_bound=3.5999999999999996
W_plus,b,model,total_cost,optimal_cost,iterations,ratio
1,1.5,continuous,1.0,1.0,1,1.0
2,1.5,continuous,3.0,2.0,2,1.5
3,1.5,continuous,6.0,3.0,3,2.0
4,1.5,continuous,10.0,4.0,4,2.5
5,1.5,continuous,16.0,5.0,5,3.2
6,1.5,continuous,16.0,6.0,5,2.6666666666666665
7,1.5,continuous,24.0,7.0,6,3.4285714285714284
8,1.5,continuous,24.0,8.0,6,3.0
9,1.5,continuous,36.0,9.0,7,4.0
10,1.5,continuous,36.0,10.0,7,3.6
11,1.5,continuous,36.0,11.0,7,3.272727272727273
12,1.5,continuous,36.0,12.0,7,3.0
13,1.5,continuous,54.0,13.0,8,4.153846153846154
14,1.5,continuous,54.0,14.0,8,3.857142857142857
15,1.5,continuous,54.0,15.0,8,3.6
16,1.5,continuous,54.0,16.0,8,3.375
17,1.5,continuous,54.0,17.0,8,3.176470588235294
18,1.5,continuous,54.0,18.0,8,3.0
19,1.5,continuous,80.0,19.0,9,4.2105263157894735
20,1.5,continuous,80.0,20.0,9,4.0
21,1.5,continuous,80.0,21.0,9,3.8095238095238093
22,1.5,continuous,80.0,22.0,9,3.6363636363636362
23,1.5,continuous,80.0,23.0,9,3.4782608695652173
24,1.5,continuous,80.0,24.0,9,3.3333333333333335
25,1.5,continuous,80.0,25.0,9,3.2
26,1.5,continuous,80.0,26.0,9,3.076923076923077
27,1.5,continuous,119.0,27.0,10,4.407407407407407
28,1.5,continuous,119.0,28.0,10,4.25
29,1.5,continuous,119.0,29.0,10,4.103448275862069
30,1.5,continuous,119.0,30.0,10,3.966666666666667
31,1.5,continuous,119.0,31.0,10,3.838709677419355
32,1.5,continuous,119.0,32.0,10,3.71875
33,1.5,continuous,119.0,33.0,10,3.606060606060606
34,1.5,continuous,119.0,34.0,10,3.5
35,1.5,continuous,119.0,35.0,10,3.4
36,1.5,continuous,119.0,36.0,10,3.3055555555555554
37,1.5,continuous,119.0,37.0,10,3.2162162162162162
38,1.5,continuous,119.0,38.0,10,3.1315789473684212
39,1.5,continuous,119.0,39.0,10,3.051282051282051
40,1.5,continuous,177.0,40.0,11,4.425
"""

BENCH_SUITE = {
    "instances": [
        {"domain": "tile", "gen": {"n": 3, "seed": 1}},
        {"domain": "lattice", "dims": "4x4x3"},
    ],
    "algos": ["hdastar", "spastar", "window"],
    "strategies": ["zobrist", "random"],
    "workers": [2, 3],
    "seed": 5,
}

BENCH_DETERMINISTIC = """\
instance,algo,strategy,p,cost,expanded,SO,CO,LB,efficiency_fraction,speedup,wall_time
tile-n3-s1,astar,,1,23.0,676,,,,0.47928994082840237,,*
tile-n3-s1,hdastar,zobrist,2,23.0,767,0.13461538461538458,0.5394839718530101,1.045632333767927,0.42503259452411996,*,*
tile-n3-s1,hdastar,zobrist,3,23.0,753,0.11390532544378695,0.656025538707103,1.043824701195219,0.4302788844621514,*,*
tile-n3-s1,hdastar,random,2,23.0,765,0.13165680473372787,0.49411764705882355,1.0169934640522875,0.44836601307189544,*,*
tile-n3-s1,hdastar,random,3,23.0,725,0.0724852071005917,0.6628383921246924,1.0386206896551724,0.4786206896551724,*,*
tile-n3-s1,spastar,,2,23.0,676,0.0,0.0,1.0236686390532543,0.47928994082840237,*,*
tile-n3-s1,spastar,,3,23.0,676,0.0,0.0,1.0917159763313609,0.47928994082840237,*,*
tile-n3-s1,window,,2,23.0,666,-0.014792899408283988,0.0,1.5825825825825826,,*,*
tile-n3-s1,window,,3,23.0,666,-0.014792899408283988,0.0,2.31981981981982,,*,*
lattice-4x4x3,astar,,1,4.0,100,,,,0.64,,*
lattice-4x4x3,hdastar,zobrist,2,4.0,97,-0.030000000000000027,0.40384615384615385,1.0103092783505154,0.6701030927835051,*,*
lattice-4x4x3,hdastar,zobrist,3,4.0,86,-0.14,0.7043879907621247,1.1860465116279069,0.7441860465116279,*,*
lattice-4x4x3,hdastar,random,2,4.0,142,0.41999999999999993,0.46963562753036436,1.2253521126760563,0.7676056338028169,*,*
lattice-4x4x3,hdastar,random,3,4.0,226,1.2599999999999998,0.6740331491712708,1.1283185840707965,0.6017699115044248,*,*
lattice-4x4x3,spastar,,2,4.0,100,0.0,0.0,1.02,0.64,*,*
lattice-4x4x3,spastar,,3,4.0,100,0.0,0.0,1.17,0.64,*,*
lattice-4x4x3,window,,2,4.0,2674,25.74,0.0,1.9992520568436798,,*,*
lattice-4x4x3,window,,3,4.0,2674,25.74,0.0,2.477187733732236,,*,*
"""

VOLATILE = [CSV_COLUMNS.index("speedup"), CSV_COLUMNS.index("wall_time")]


def mask_volatile(text: str) -> str:
    header, *rows = text.splitlines()
    masked = [header]
    for row in rows:
        cells = row.split(",")
        for i in VOLATILE:
            if cells[i]:
                cells[i] = "*"
        masked.append(",".join(cells))
    return "\n".join(masked) + "\n"


@pytest.mark.parametrize(
    "argv, want",
    [
        ((), IASIM_DISCRETE),
        (("--model", "continuous", "--b", "1.5"), IASIM_CONTINUOUS),
    ],
)
def test_iasim_bytes(tmp_path, capsys, argv, want):
    assert main(["iasim", "--wmax", "40", *argv]) == 0
    assert capsys.readouterr().out == want
    out = tmp_path / "ia.csv"
    assert main(["iasim", "--wmax", "40", *argv, "--out", str(out)]) == 0
    assert out.read_text() == want
    bounds = want.splitlines()[1].split()
    worst, average = (field.split("=")[1] for field in bounds[2:])
    assert capsys.readouterr().out == (
        f"40 rows written to {out}\nbounds: worst={worst} average={average}\n"
    )


def test_bench_deterministic_bytes(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(BENCH_SUITE))
    assert main(["bench", "--suite", str(suite)]) == 0
    assert mask_volatile(capsys.readouterr().out) == BENCH_DETERMINISTIC
    out = tmp_path / "bench.csv"
    assert main(["bench", "--suite", str(suite), "--out", str(out)]) == 0
    assert mask_volatile(out.read_text()) == BENCH_DETERMINISTIC
    assert capsys.readouterr().out == f"18 rows written to {out}\n"
