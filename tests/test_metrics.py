import numpy as np

from oatdar.metrics import MetricRecord, MetricReport, psnr, ssim


def test_report_roundtrip_with_computed_psnr(tmp_path):
    rng = np.random.default_rng(4)
    ref = rng.random((16, 16))
    records = []
    for i, noise in enumerate((0.05, 0.2)):
        x = np.clip(ref + noise * rng.standard_normal(ref.shape), 0.0, 1.0)
        records.append(MetricRecord(
            entry_index=i, method="lbp", nis=0, snr_db=30.0,
            psnr=psnr(x, ref), ssim=ssim(x, ref), wall_time=0.5 + i))
    records.append(MetricRecord(2, "dar", 5, np.inf, psnr(ref, ref), 1.0,
                                2.0))
    assert all(type(r.psnr) is float for r in records)
    report = MetricReport(records=records, config_hash="abc")
    report.write(tmp_path)

    # records.tsv holds the deterministic columns, each float as its repr,
    # which reads back to the same float; wall times go to timings.tsv
    lines = (tmp_path / "records.tsv").read_text().splitlines()
    assert lines[:3] == ["#oatdar-report v1", "#config_hash=abc",
                         "index\tmethod\tnis\tsnr_db\tpsnr\tssim"]
    assert lines[5] == "2\tdar\t5\tinf\t99.0\t1.0"
    back = [line.split("\t") for line in lines[3:]]
    assert [(int(i), m, int(n), float(s), float(p), float(q))
            for i, m, n, s, p, q in back] == \
        [(r.entry_index, r.method, r.nis, r.snr_db, r.psnr, r.ssim)
         for r in records]
    assert (tmp_path / "timings.tsv").read_text() == (
        "index\tmethod\tnis\twall_time\n"
        "0\tlbp\t0\t0.5\n1\tlbp\t0\t1.5\n2\tdar\t5\t2.0\n")
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert [row.split()[:2] for row in summary[1:]] == [["lbp", "2"],
                                                         ["dar-5", "1"]]
    # a sweep's report also groups by SNR; records.tsv is the same
    MetricReport(records, "abc", by_snr=True).write(tmp_path / "sweep")
    summary = (tmp_path / "sweep" / "summary.txt").read_text().splitlines()
    assert [row.split()[:2] for row in summary[1:]] == [
        ["lbp@snr=30", "2"], ["dar-5@snr=inf", "1"]]
    assert (tmp_path / "sweep" / "records.tsv").read_bytes() == \
        (tmp_path / "records.tsv").read_bytes()
