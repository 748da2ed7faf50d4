import workloads
from procs import run_inprocess


def test_goodsets_verify_flags_exactly_the_planted_lines(tmp_path):
    ctx = workloads.Context(tmp_path, tmp_path, 3, inprocess=True)
    work = workloads.GoodsetsStreamQ7(ctx)
    rows = work.verify_file.read_text().splitlines()
    assert len(rows) == work.verify_good + work.verify_bad
    out = run_inprocess(["goodsets", "verify", str(work.verify_file), "--q", "7"])
    flagged = [int(line.split()[1].rstrip(":")) for line in out.stdout.splitlines()
               if line.startswith("line ")]
    assert out.rc == 1
    assert flagged == work.planted
    assert workloads.GoodsetsStreamQ7(ctx).planted == work.planted
