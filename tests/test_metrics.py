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

    back = MetricReport.read(tmp_path)
    assert back.records == records
    assert back.config_hash == "abc"
    assert back.aggregates == report.aggregates
