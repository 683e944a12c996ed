import numpy as np
import pytest

from dataclasses import fields

from topiccf.cli import (
    ALGORITHMS,
    STAGES,
    RunConfig,
    main,
    read_config,
    write_config,
)

WAR_WORDS = ["war", "battle", "army", "soldier", "enemy", "commander"]
LOVE_WORDS = ["love", "romance", "heart", "kiss", "wedding", "couple"]


@pytest.fixture
def tiny_inputs(tmp_path):
    rng = np.random.default_rng(42)
    ratings = tmp_path / "ratings.csv"
    lines = []
    for u in range(1, 5):          # war fans
        for i in range(1, 7):
            lines.append(f"{u},{i},{rng.integers(3, 6)}")
    for u in range(5, 9):          # romance fans
        for i in range(7, 13):
            lines.append(f"{u},{i},{rng.integers(3, 6)}")
    ratings.write_text("\n".join(lines) + "\n")

    corpus = tmp_path / "corpus.tsv"
    doc_lines = []
    for i in range(1, 13):
        words = WAR_WORDS if i <= 6 else LOVE_WORDS
        text = " ".join(rng.choice(words) for _ in range(20))
        doc_lines.append(f"{i}\t{text}")
    corpus.write_text("\n".join(doc_lines) + "\n")
    return ratings, corpus


def _base_args(ratings, corpus, out):
    return [
        "--ratings", str(ratings), "--format", "csv", "--corpus", str(corpus),
        "--out", str(out), "--topics", "2", "--alpha-sum", "2.0",
        "--iterations", "60", "--lda-seed", "7", "--split-seed", "3",
        "--neighbors", "3", "--max-k", "5", "--ks", "5",
    ]


def _run_pipeline(ratings, corpus, out, algorithms="hybrid,ubcf_llr"):
    args = _base_args(ratings, corpus, out)
    assert main(["split"] + args) == 0
    assert main(["train"] + args) == 0
    assert main(["personas"] + args) == 0
    assert main(["evaluate"] + args + ["--algorithms", algorithms]) == 0


def test_split_writes_files_and_summary(tiny_inputs, tmp_path, capsys):
    ratings, corpus = tiny_inputs
    out = tmp_path / "out"
    assert main(["split"] + _base_args(ratings, corpus, out)) == 0
    assert (out / "train.csv").exists()
    assert (out / "test.csv").exists()
    printed = capsys.readouterr().out
    assert "users=8" in printed
    assert "train" in printed and "test" in printed


def test_split_rejects_fraction_one(tiny_inputs, tmp_path, capsys):
    ratings, corpus = tiny_inputs
    out = tmp_path / "out"
    rc = main(["split"] + _base_args(ratings, corpus, out) + ["--fraction", "1.0"])
    assert rc == 2
    assert "fraction" in capsys.readouterr().err


def test_split_deterministic_rerun(tiny_inputs, tmp_path):
    ratings, corpus = tiny_inputs
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["split"] + _base_args(ratings, corpus, out1))
    main(["split"] + _base_args(ratings, corpus, out2))
    assert (out1 / "train.csv").read_bytes() == (out2 / "train.csv").read_bytes()
    assert (out1 / "test.csv").read_bytes() == (out2 / "test.csv").read_bytes()


def test_train_artifacts(tiny_inputs, tmp_path, capsys):
    ratings, corpus = tiny_inputs
    out = tmp_path / "out"
    args = _base_args(ratings, corpus, out)
    main(["split"] + args)
    assert main(["train"] + args + ["--iterations", "100"]) == 0
    theta = (out / "theta.csv").read_text().splitlines()
    assert len(theta) == 12
    for line in theta:
        probs = [float(x) for x in line.split(",")[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
    assert (out / "phi.csv").exists()
    topics = (out / "topics.txt").read_text().splitlines()
    assert len(topics) == 2
    assert "log-likelihood" in capsys.readouterr().out


def test_train_rerun_identical(tiny_inputs, tmp_path):
    ratings, corpus = tiny_inputs
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        args = _base_args(ratings, corpus, out)
        main(["split"] + args)
        main(["train"] + args)
    for name in ("theta.csv", "phi.csv", "topics.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_personas_rows_and_trailer(tiny_inputs, tmp_path, capsys):
    ratings, corpus = tiny_inputs
    out = tmp_path / "out"
    args = _base_args(ratings, corpus, out)
    main(["split"] + args)
    main(["train"] + args)
    assert main(["personas"] + args) == 0
    lines = (out / "personas.csv").read_text().splitlines()
    assert lines[-1] == "#undefined:0"
    assert len(lines) == 9  # 8 users + trailer
    assert "8 personas" in capsys.readouterr().out


def test_personas_all_undefined_fails_before_writing(tiny_inputs, tmp_path, capsys):
    ratings, _ = tiny_inputs
    corpus = tmp_path / "offset_corpus.tsv"   # ids 101-112 never match rating items 1-12
    corpus.write_text("".join(f"{100 + i}\t{' '.join(WAR_WORDS)}\n" for i in range(1, 13)))
    out = tmp_path / "out"
    args = _base_args(ratings, corpus, out)
    main(["split"] + args)
    main(["train"] + args)
    capsys.readouterr()
    assert main(["personas"] + args) == 2
    err = capsys.readouterr().err
    assert "all 8 personas undefined" in err
    assert "item ids" in err
    assert not (out / "personas.csv").exists()


def test_personas_requires_upstream(tmp_path, capsys):
    rc = main(["personas", "--out", str(tmp_path / "nowhere")])
    assert rc == 2
    assert "missing input" in capsys.readouterr().err


def test_evaluate_selection_groups(tiny_inputs, tmp_path):
    ratings, corpus = tiny_inputs
    out = tmp_path / "out"
    _run_pipeline(ratings, corpus, out, algorithms="hybrid,ubcf_llr")
    data = [
        l for l in (out / "report.csv").read_text().splitlines()
        if not l.startswith(("#", "algorithm"))
    ]
    assert {l.split(",")[0] for l in data} == {"hybrid", "ubcf_llr"}
    assert (out / "recs_hybrid.csv").exists()
    assert (out / "recs_ubcf_llr.csv").exists()


def test_evaluate_unknown_algorithm(tiny_inputs, tmp_path, capsys):
    ratings, corpus = tiny_inputs
    out = tmp_path / "out"
    args = _base_args(ratings, corpus, out)
    main(["split"] + args)
    rc = main(["evaluate"] + args + ["--algorithms", "svd"])
    assert rc == 2
    err = capsys.readouterr().err
    for name in ALGORITHMS:
        assert name in err


def test_evaluate_rerun_byte_identical(tiny_inputs, tmp_path):
    ratings, corpus = tiny_inputs
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    _run_pipeline(ratings, corpus, out1)
    _run_pipeline(ratings, corpus, out2)
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "recs_hybrid.csv").read_bytes() == (out2 / "recs_hybrid.csv").read_bytes()


def test_evaluate_per_user_detail_and_similarity_dump(tiny_inputs, tmp_path):
    ratings, corpus = tiny_inputs
    out = tmp_path / "out"
    args = _base_args(ratings, corpus, out)
    main(["split"] + args)
    main(["train"] + args)
    main(["personas"] + args)
    assert main(["evaluate"] + args + ["--algorithms", "hybrid",
                                       "--per-user-detail", "--dump-similarities"]) == 0
    assert (out / "per_user_hybrid.csv").read_text().startswith("user_id,K,")
    sims = (out / "similarities.csv").read_text().splitlines()
    assert sims[0] == "user_a,user_b,topic,llr,hybrid"
    assert len(sims) == 1 + 8 * 7 // 2


def test_config_round_trip(tmp_path):
    cfg = RunConfig(ratings="r.csv", format="csv", corpus=None, out="x",
                    topics=7, alpha_sum=7.0, beta=0.02, iterations=12,
                    ks=(5, 10), algorithms=("hybrid",), relevance_threshold=3.5)
    path = tmp_path / "config.txt"
    write_config(cfg, path)
    assert read_config(path) == cfg


def test_effective_config_written_and_reparses(tiny_inputs, tmp_path):
    ratings, corpus = tiny_inputs
    out = tmp_path / "out"
    main(["split"] + _base_args(ratings, corpus, out))
    cfg = read_config(out / "config.txt")
    assert cfg.topics == 2
    assert cfg.split_seed == 3
    assert cfg.ratings == str(ratings)


def test_config_file_overridden_by_flags(tiny_inputs, tmp_path):
    ratings, corpus = tiny_inputs
    conf = tmp_path / "conf.txt"
    conf.write_text("topics=9\nneighbors=5\nformat=csv\n")
    out = tmp_path / "out"
    rc = main(["split", "--config", str(conf), "--ratings", str(ratings),
               "--out", str(out), "--topics", "3"])
    assert rc == 0
    cfg = read_config(out / "config.txt")
    assert cfg.topics == 3       # flag wins
    assert cfg.neighbors == 5    # config file survives


def test_unknown_config_key_rejected(tmp_path, capsys):
    conf = tmp_path / "conf.txt"
    conf.write_text("nonsense=1\n")
    rc = main(["split", "--config", str(conf), "--ratings", "x.csv"])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


def test_bad_config_file_value_names_key_and_line(tmp_path, capsys):
    conf = tmp_path / "conf.txt"
    conf.write_text("format=csv\ntopics=abc\n")
    rc = main(["split", "--config", str(conf), "--ratings", "x.csv"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{conf}:2:" in err
    assert "topics" in err and "'abc'" in err


def test_bad_ks_flag_is_a_configuration_error(tmp_path, capsys):
    rc = main(["evaluate", "--out", str(tmp_path / "out"), "--ks", "5,x"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ks" in err and "'5,x'" in err


@pytest.mark.parametrize("flag,key,value", [
    ("--topics", "topics", "abc"),
    ("--format", "format", "tsv"),
    ("--relevance-threshold", "relevance_threshold", "x"),
])
def test_bad_scalar_flag_is_a_configuration_error(tmp_path, capsys, flag, key, value):
    rc = main(["split", "--out", str(tmp_path / "out"), "--ratings", "x.csv", flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert key in err and repr(value) in err


@pytest.mark.parametrize("stage", list(STAGES))
def test_help_lists_every_config_field_with_its_default(stage, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main([stage, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for f in fields(RunConfig):
        value = getattr(RunConfig(), f.name)
        default = ("none" if value is None
                   else ",".join(map(str, value)) if isinstance(value, tuple) else str(value))
        entry = text.split(f" --{f.name.replace('_', '-')} {f.name.upper()} ", 1)[1]
        assert entry.split("(default: ", 1)[1].startswith(default + ")"), f.name


def test_missing_ratings_file(tmp_path, capsys):
    rc = main(["split", "--ratings", str(tmp_path / "absent.csv"),
               "--out", str(tmp_path / "out")])
    assert rc == 2
