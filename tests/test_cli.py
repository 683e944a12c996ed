import hashlib

import numpy as np
import pytest

from dataclasses import fields

from topiccf import ingest, lda, persona, recommend, similarity
from topiccf.cli import (
    ALGORITHMS,
    STAGES,
    RunConfig,
    main,
    read_config,
    write_config,
)

from synth import desk_instance

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


def test_personas_stage_leaves_by_user_unbuilt(tiny_inputs, tmp_path, monkeypatch):
    # The persona build reads the columns by user_runs: it builds no tuple view and no
    # CSR index (the index costs an argsort of every rating).
    ratings, corpus = tiny_inputs
    args = _base_args(ratings, corpus, tmp_path / "out")
    built = []
    build = persona.build_all_personas
    monkeypatch.setattr(persona, "build_all_personas",
                        lambda train, profiles: built.append(train) or build(train, profiles))
    for stage in ("split", "train", "personas"):
        assert main([stage] + args) == 0
    assert len(built) == 1
    assert "by_user" not in built[0].__dict__
    assert "index" not in built[0].__dict__


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


def test_evaluate_refuses_personas_that_cover_no_train_user(tiny_inputs, tmp_path, capsys):
    # A personas.csv from other users: every topic similarity would be undefined,
    # topic_only would score nothing and hybrid would quietly be LLR-only.
    ratings, corpus = tiny_inputs
    out = tmp_path / "out"
    args = _base_args(ratings, corpus, out)
    for stage in ("split", "train", "personas"):
        assert main([stage] + args) == 0
    path = out / "personas.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line if line.startswith("#") else
                            f"{int(line.split(',', 1)[0]) + 100000},{line.split(',', 1)[1]}"
                            for line in lines))
    capsys.readouterr()
    assert main(["evaluate"] + args + ["--algorithms", "hybrid,topic_only"]) == 2
    err = capsys.readouterr().err
    assert "no train user has a defined persona" in err
    assert str(path) in err and "run personas again" in err
    assert not (out / "report.csv").exists()
    # The baselines read no personas, so the same directory still evaluates them.
    assert main(["evaluate"] + args + ["--algorithms", "ubcf_pearson,ubcf_llr,ibcf_llr"]) == 0


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


@pytest.mark.parametrize("content", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
def test_empty_ratings_file_fails_and_creates_no_output_directory(tmp_path, capsys, content):
    ratings = tmp_path / "empty.dat"
    ratings.write_text(content)
    out = tmp_path / "out"
    assert main(["split", "--ratings", str(ratings), "--out", str(out)]) == 2
    assert f"error: no ratings in {ratings}" in capsys.readouterr().err
    assert not out.exists()


def test_ubcf_only_similarity_audit_has_topic_values(tiny_inputs, tmp_path):
    ratings, corpus = tiny_inputs
    out = tmp_path / "out"
    args = _base_args(ratings, corpus, out)
    for stage in ("split", "train", "personas"):
        assert main([stage] + args) == 0
    assert main(["evaluate"] + args + ["--algorithms", "ubcf_llr", "--dump-similarities"]) == 0
    rows = [line.split(",") for line in (out / "similarities.csv").read_text().splitlines()[1:]]
    assert len(rows) == 8 * 7 // 2
    assert all(row[2] != "undefined" for row in rows)


@pytest.mark.parametrize("upstream,command,missing,producer", [
    (["split"], ["personas"], "theta.csv", "train"),
    (["train"], ["personas"], "train.csv", "split"),
    ([], ["evaluate"], "train.csv", "split"),
    (["split"], ["evaluate", "--algorithms", "ubcf_llr", "--dump-similarities"],
     "personas.csv", "personas"),
])
def test_missing_input_names_the_stage_that_writes_it(tiny_inputs, tmp_path, capsys,
                                                      upstream, command, missing, producer):
    ratings, corpus = tiny_inputs
    out = tmp_path / "out"
    args = _base_args(ratings, corpus, out)
    for stage in upstream:
        assert main([stage] + args) == 0
    capsys.readouterr()
    assert main(command + args) == 2
    assert f"missing input {out / missing}; run {producer} first" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["personas"],
    ["evaluate"],
    ["train"],
    ["split", "--ratings", "r.csv", "--fraction", "1.0"],
])
def test_failed_check_creates_no_output_directory(tmp_path, argv):
    out = tmp_path / "nowhere" / "x"
    assert main(argv + ["--out", str(out)]) == 2
    assert not (tmp_path / "nowhere").exists()


@pytest.mark.parametrize("stage,flags,absent", [
    ("split", ["--ratings", "{tmp}/absent.csv"], "{tmp}/absent.csv"),
    ("train", ["--corpus", "{corpus}", "--stopwords", "{tmp}/nope.txt"], "{tmp}/nope.txt"),
    ("train", ["--corpus", "{tmp}/nodir/"], "{tmp}/nodir/"),
], ids=["split-ratings", "train-stopwords", "train-corpus-dir"])
def test_missing_outside_input_creates_no_output_directory(tiny_inputs, tmp_path, capsys,
                                                           stage, flags, absent):
    _, corpus = tiny_inputs
    fill = {"tmp": tmp_path, "corpus": corpus}
    out = tmp_path / "o" / "x"
    rc = main([stage] + [f.format(**fill) for f in flags] + ["--out", str(out)])
    assert rc == 2
    assert absent.format(**fill) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_os_error_is_exit_2(tmp_path, capsys):
    rc = main(["split", "--ratings", str(tmp_path), "--format", "csv",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("value", ["6", "0.5"])
def test_relevance_threshold_out_of_range_rejected(tiny_inputs, tmp_path, capsys, value):
    ratings, corpus = tiny_inputs
    out = tmp_path / "out"
    args = _base_args(ratings, corpus, out)
    assert main(["split"] + args) == 0
    capsys.readouterr()
    rc = main(["evaluate"] + args + ["--algorithms", "ubcf_llr", "--relevance-threshold", value])
    assert rc == 2
    assert "relevance_threshold must be" in capsys.readouterr().err
    assert not (out / "report.csv").exists()


def test_none_unsets_an_optional_value(tiny_inputs, tmp_path):
    ratings, corpus = tiny_inputs
    out = tmp_path / "out"
    args = _base_args(ratings, corpus, out)
    assert main(["split"] + args) == 0
    assert main(["train"] + args + ["--stopwords", "none"]) == 0
    assert read_config(out / "config.txt").stopwords is None
    assert main(["personas"] + args) == 0
    assert main(["evaluate"] + args + ["--relevance-threshold", "none"]) == 0
    written = (out / "config.txt").read_text().splitlines()
    assert "stopwords=" in written and "relevance_threshold=" in written
    conf = tmp_path / "conf.txt"
    conf.write_text("stopwords=none\nrelevance_threshold=none\n")
    cfg = read_config(conf)
    assert cfg.stopwords is None and cfg.relevance_threshold is None


@pytest.mark.parametrize("stage,name", [("personas", "theta.csv"), ("evaluate", "personas.csv")])
@pytest.mark.parametrize("damage", ["non_numeric", "short"])
def test_malformed_topic_row_names_file_and_line(tiny_inputs, tmp_path, capsys,
                                                 stage, name, damage):
    ratings, corpus = tiny_inputs
    out = tmp_path / "out"
    args = _base_args(ratings, corpus, out)
    for upstream in ("split", "train", "personas"):
        assert main([upstream] + args) == 0
    lines = (out / name).read_text().splitlines()
    head, _, _ = lines[1].rpartition(",")
    lines[1] = head + ",abc" if damage == "non_numeric" else head
    (out / name).write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([stage] + args + ["--algorithms", "hybrid"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ") and str(out / name) in err


@pytest.mark.parametrize("value", ["", ","])
def test_empty_algorithm_list_rejected(tiny_inputs, tmp_path, capsys, value):
    ratings, corpus = tiny_inputs
    out = tmp_path / "out"
    args = _base_args(ratings, corpus, out)
    assert main(["split"] + args) == 0
    capsys.readouterr()
    assert main(["evaluate"] + args + ["--algorithms", value]) == 2
    err = capsys.readouterr().err
    assert "algorithms" in err and all(name in err for name in ALGORITHMS)
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("damage", ["halved", "nan"])
def test_unnormalised_persona_row_names_file_and_line(tiny_inputs, tmp_path, capsys, damage):
    ratings, corpus = tiny_inputs
    out = tmp_path / "out"
    args = _base_args(ratings, corpus, out)
    for upstream in ("split", "train", "personas"):
        assert main([upstream] + args) == 0
    lines = (out / "personas.csv").read_text().splitlines()
    head, _, last = lines[1].rpartition(",")
    lines[1] = f"{head},{float(last) / 2!r}" if damage == "halved" else f"{head},nan"
    (out / "personas.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["evaluate"] + args + ["--algorithms", "hybrid"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ") and str(out / "personas.csv") in err
    assert "sum" in err
    assert not (out / "report.csv").exists()


def test_similarity_audit_is_pinned(tiny_inputs, tmp_path):
    # similarities.csv's bytes: a change to the per-pair topic, LLR or hybrid
    # arithmetic, or to the audit's format, changes this digest.
    out = tmp_path / "out"
    args = _base_args(*tiny_inputs, out)
    for stage in ("split", "train", "personas"):
        assert main([stage] + args) == 0
    assert main(["evaluate"] + args + ["--algorithms", "ubcf_llr", "--dump-similarities"]) == 0
    assert hashlib.sha256((out / "similarities.csv").read_bytes()).hexdigest() == (
        "a4a02fafe01c6c8a7561657754d8a7838759059ad3fd051df615dce8ca0159fc")


@pytest.mark.parametrize("stage,flag,key", [("split", "--split-seed", "split_seed"),
                                            ("train", "--lda-seed", "lda_seed")])
def test_negative_seed_is_a_configuration_error(tiny_inputs, tmp_path, capsys, stage, flag, key):
    out = tmp_path / "out"
    assert main([stage] + _base_args(*tiny_inputs, out) + [flag, "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "-1" in err
    assert not out.exists()


@pytest.mark.parametrize("damage", ["halved", "zeroed"])
def test_unnormalised_theta_row_names_file_and_line(tiny_inputs, tmp_path, capsys, damage):
    out = tmp_path / "out"
    args = _base_args(*tiny_inputs, out)
    for upstream in ("split", "train"):
        assert main([upstream] + args) == 0
    lines = (out / "theta.csv").read_text().splitlines()
    head, _, last = lines[2].rpartition(",")
    if damage == "halved":
        lines[2] = f"{head},{float(last) / 2!r}"
    else:
        lines[2] = head.split(",")[0] + ",0.0" * lines[2].count(",")
    (out / "theta.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["personas"] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: ") and str(out / "theta.csv") in err
    assert "sum" in err
    assert not (out / "personas.csv").exists()


@pytest.mark.parametrize("stage,name", [("personas", "theta.csv"), ("evaluate", "personas.csv")])
def test_negative_topic_value_names_file_and_line(tiny_inputs, tmp_path, capsys, stage, name):
    # The row sums to 1, so only the sign check can catch it.
    out = tmp_path / "out"
    args = _base_args(*tiny_inputs, out)
    for upstream in ("split", "train", "personas"):
        assert main([upstream] + args) == 0
    lines = (out / name).read_text().splitlines()
    lines[1] = lines[1].split(",")[0] + ",1.5,-0.5"
    (out / name).write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([stage] + args + ["--algorithms", "hybrid"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ") and str(out / name) in err
    assert "negative value -0.5" in err


@pytest.mark.parametrize("flag", ["--alpha-sum", "--beta"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_non_finite_or_negative_smoothing_is_a_configuration_error(tiny_inputs, tmp_path, capsys,
                                                                   flag, value):
    out = tmp_path / "out"
    assert main(["train"] + _base_args(*tiny_inputs, out) + [flag, value]) == 2
    assert "alpha_sum and beta must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_train_says_which_gibbs_sweep_ran(tiny_inputs, tmp_path, capsys, monkeypatch):
    lib, how = lda.load_kernels()
    assert how.startswith("native (" if lib else "python (")
    for run, sweep in (("o1", how), ("o2", "python (no compiler)")):
        monkeypatch.setattr(lda, "load_kernels", lambda sweep=sweep: (lib, sweep))
        out = tmp_path / run
        args = _base_args(*tiny_inputs, out)
        assert main(["split"] + args) == 0
        capsys.readouterr()
        assert main(["train"] + args) == 0
        assert f"gibbs: {sweep}" in capsys.readouterr().out.splitlines()
        assert not any(sweep in path.read_text() for path in out.iterdir())


def _not_utf8(path, line_no, bad):
    """Rewrite the text file at ``path`` with the byte ``bad`` at the end of line ``line_no``."""
    lines = path.read_bytes().split(b"\n")
    lines[line_no - 1] += bad
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("stage,name,bad", [
    ("split", "ratings", b"\xff"),
    ("train", "corpus", b" caf\xe9"),  # Latin-1, as the ML-1M movies.dat is
    ("train", "corpus_dir", b" caf\xe9"),
    ("train", "stopwords", b"\xe9"),
    ("split", "config", b"\xff"),
], ids=["ratings", "corpus-tsv", "corpus-dir-file", "stopwords", "config"])
def test_outside_input_not_utf8_exits_2_naming_file_and_line(tiny_inputs, tmp_path, capsys,
                                                              stage, name, bad):
    ratings, corpus = tiny_inputs
    out = tmp_path / "out"
    args = _base_args(ratings, corpus, out)
    bad_file = {"ratings": ratings, "corpus": corpus}.get(name)
    if name == "corpus_dir":
        (tmp_path / "docs").mkdir()
        for line in corpus.read_text().splitlines():
            item, text = line.split("\t")
            (tmp_path / "docs" / f"{item}.txt").write_text(f"{text}\nmore\n")
        bad_file = tmp_path / "docs" / "3.txt"
        args += ["--corpus", str(tmp_path / "docs")]
    elif name in ("stopwords", "config"):
        bad_file = tmp_path / f"{name}.txt"
        bad_file.write_text("the\nand\n" if name == "stopwords" else "topics=2\nneighbors=3\n")
        args += [f"--{name}", str(bad_file)]
    _not_utf8(bad_file, 2, bad)
    assert main([stage] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line 2: {bad_file}: byte 0x{bad[-1]:02x} is not UTF-8")
    assert "Traceback" not in err
    assert not out.exists()


def test_failing_stage_removes_every_directory_it_created(tiny_inputs, tmp_path, capsys):
    # The stage makes <tmp>/o/p/x; each is removed, deepest first, while empty.
    # A directory that was there before stays, and so does anything in it.
    ratings, _ = tiny_inputs
    _not_utf8(ratings, 2, b"\xff")
    split = ["split", "--format", "csv", "--ratings", str(ratings), "--out"]
    assert main(split + [str(tmp_path / "o" / "p" / "x")]) == 2
    assert not (tmp_path / "o").exists()
    (tmp_path / "kept").mkdir()
    assert main(split + [str(tmp_path / "kept" / "p" / "x")]) == 2
    assert (tmp_path / "kept").is_dir() and not any((tmp_path / "kept").iterdir())
    (tmp_path / "full" / "p").mkdir(parents=True)
    (tmp_path / "full" / "note.txt").write_text("mine\n")
    assert main(split + [str(tmp_path / "full" / "p" / "q" / "x")]) == 2
    assert sorted(p.name for p in (tmp_path / "full").iterdir()) == ["note.txt", "p"]
    assert not any((tmp_path / "full" / "p").iterdir())
    assert capsys.readouterr().err.count("is not UTF-8") == 3


@pytest.mark.parametrize("stage,upstream,name", [
    ("personas", ["split", "train"], "train.csv"),
    ("personas", ["split", "train"], "theta.csv"),
    ("evaluate", ["split", "train", "personas"], "test.csv"),
    ("evaluate", ["split", "train", "personas"], "personas.csv"),
])
def test_stage_csv_not_utf8_exits_2_naming_file_and_line(tiny_inputs, tmp_path, capsys,
                                                          stage, upstream, name):
    ratings, corpus = tiny_inputs
    out = tmp_path / "out"
    args = _base_args(ratings, corpus, out) + ["--algorithms", "hybrid"]
    for step in upstream:
        assert main([step] + args) == 0
    _not_utf8(out / name, 3, b"\xff")
    before = sorted(p.name for p in out.iterdir())
    capsys.readouterr()
    assert main([stage] + args) == 2
    assert capsys.readouterr().err.startswith(
        f"error: line 3: {out / name}: byte 0xff is not UTF-8")
    assert sorted(p.name for p in out.iterdir()) == before


@pytest.mark.parametrize("key,low", [
    ("topics", 1), ("iterations", 1), ("lda_seed", 0), ("split_seed", 0),
    ("min_df", 1), ("neighbors", 1),
])
def test_value_below_its_lower_bound_exits_2(tmp_path, capsys, key, low):
    flag = "--" + key.replace("_", "-")
    rc = main(["split", "--out", str(tmp_path / "out"), "--ratings", "x.csv", flag, str(low - 1)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {key} must be >= {low}, got {low - 1}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stage,name,values,written", [
    ("personas", "theta.csv", ",0.5,0.5", "personas.csv"),
    ("evaluate", "personas.csv", ",0.0,0.0", "report.csv"),
])
def test_repeated_topic_row_id_names_both_lines(tiny_inputs, tmp_path, capsys,
                                                stage, name, values, written):
    # The repeat reads as a good row, so only the id check can catch it.
    out = tmp_path / "out"
    args = _base_args(*tiny_inputs, out)
    for upstream in ("split", "train", "personas")[:2 if stage == "personas" else 3]:
        assert main([upstream] + args) == 0
    lines = (out / name).read_text().splitlines()
    first = lines[0].split(",")[0]
    (out / name).write_text("\n".join(lines + [first + values]) + "\n")
    capsys.readouterr()
    assert main([stage] + args + ["--algorithms", "hybrid"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: line {len(lines) + 1}: {out / name}: id {first} repeats line 1\n"
    assert not (out / written).exists()


def test_train_warns_of_skipped_corpus_entries(tiny_inputs, tmp_path, capsys):
    ratings, corpus = tiny_inputs
    args = _base_args(ratings, corpus, tmp_path / "out")
    assert main(["split"] + args) == 0
    capsys.readouterr()
    assert main(["train"] + args) == 0
    assert "warning" not in capsys.readouterr().out
    corpus.write_text(corpus.read_text() + "abc\tbattle army\n13\t  \n")
    assert main(["train"] + args) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "warning: 2 corpus entries skipped "
        "(non-integer id, directory entry not a .txt file, or empty text)")


def _desk_split(out):
    """train.csv and test.csv of the desk fixture, split as the split stage would."""
    pair = ingest.split_train_test(desk_instance()[0], 0.8, 1)
    out.mkdir()
    ingest.write_ratings_csv(pair.train, out / "train.csv")
    ingest.write_ratings_csv(pair.test, out / "test.csv")
    return pair.train


def test_evaluate_computes_each_item_column_once(tmp_path, monkeypatch, capsys):
    # The per-user path would compute one column per train rating of every test user.
    calls = []
    col = similarity.item_llr_col
    def counting(item, train):
        calls.append(item)
        return col(item, train)
    monkeypatch.setattr(similarity, "item_llr_col", counting)
    monkeypatch.setattr(recommend, "item_llr_col", counting)
    out = tmp_path / "out"
    train = _desk_split(out)
    assert main(["evaluate", "--out", str(out), "--algorithms", "ibcf_llr"]) == 0
    assert sorted(calls) == train.items()
    n = len(train.items())
    assert f"item LLR block: {n} x {n} float64, " in capsys.readouterr().out


def test_evaluate_without_ibcf_builds_no_block(tiny_inputs, tmp_path, monkeypatch, capsys):
    def no_block(*args):
        raise AssertionError("item_llr_block called")
    monkeypatch.setattr(similarity, "item_llr_block", no_block)
    _run_pipeline(*tiny_inputs, tmp_path / "out",
                  algorithms="hybrid,topic_only,ubcf_pearson,ubcf_llr")
    assert "item LLR block" not in capsys.readouterr().out


def test_evaluate_counts_cold_start_users_and_empty_lists(tmp_path, capsys):
    out = tmp_path / "out"
    _desk_split(out)
    args = ["evaluate", "--out", str(out), "--algorithms", "ubcf_llr,ibcf_llr"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    assert "no train ratings" not in printed
    assert "ubcf_llr: " in printed and "(120 users, 0 empty lists)" in printed
    with open(out / "test.csv", "a", encoding="utf-8") as fh:
        fh.write("999,5,4.0,1\n")
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("note: 1 test users have no train ratings; "
                        "every algorithm gives them an empty list")
    for algo in ("ubcf_llr", "ibcf_llr"):
        line, = [l for l in lines if l.startswith(f"{algo}: ")]
        assert line.endswith("(121 users, 1 empty lists)")


def test_undefined_persona_note_names_only_selected_algorithms(tiny_inputs, tmp_path, capsys):
    out = tmp_path / "out"
    args = _base_args(*tiny_inputs, out)
    for stage in ("split", "train", "personas"):
        assert main([stage] + args) == 0
    personas = dict(persona.load_personas_csv(out / "personas.csv"))
    personas[1] = persona.UserPersona(1, None, 0)
    persona.write_personas_csv(personas, out / "personas.csv")
    notes = {}
    for algos in ("hybrid", "topic_only", "hybrid,topic_only", "ubcf_llr"):
        capsys.readouterr()
        assert main(["evaluate"] + args + ["--algorithms", algos, "--dump-similarities"]) == 0
        notes[algos] = [l for l in capsys.readouterr().out.splitlines()
                        if l.startswith("note: ")]
    hybrid = "hybrid falls back to rating-overlap similarity for those users"
    topic = "topic_only gives them empty lists"
    assert notes == {
        "hybrid": [f"note: 1 personas undefined; {hybrid}"],
        "topic_only": [f"note: 1 personas undefined; {topic}"],
        "hybrid,topic_only": [f"note: 1 personas undefined; {hybrid}, {topic}"],
        "ubcf_llr": [],
    }


@pytest.mark.parametrize("flags,message", [
    (["--like-threshold", "6"], "like_threshold must be in [1.0, 5.0]"),
    (["--like-threshold", "0.5"], "like_threshold must be in [1.0, 5.0]"),
    (["--ks", "10,5"], "ks must be strictly increasing positive integers"),
    (["--ks", "5,5"], "ks must be strictly increasing positive integers"),
    (["--max-k", "5", "--ks", "5,10"], "max_k=5 below largest K=10"),
    (["--algorithms", "ubcf_llr,ubcf_llr"], "algorithms repeats a name: ubcf_llr,ubcf_llr"),
], ids=["like-above", "like-below", "ks-decreasing", "ks-repeated", "max-k-below-k",
        "algorithm-repeated"])
def test_inconsistent_values_exit_2_naming_the_rule(tmp_path, capsys, flags, message):
    out = tmp_path / "out"
    assert main(["evaluate", "--out", str(out)] + flags) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_config_file_skips_comment_and_blank_lines(tmp_path):
    conf = tmp_path / "conf.txt"
    conf.write_text("# neighbors=5\n\n  # topics=3\ntopics=9\n")
    assert read_config(conf) == RunConfig(topics=9)


def test_repeated_config_key_exits_2_naming_both_lines(tiny_inputs, tmp_path, capsys):
    ratings, _ = tiny_inputs
    conf = tmp_path / "conf.txt"
    conf.write_text("neighbors=10\n# neighbors=15\nformat=csv\nneighbors=20\n")
    out = tmp_path / "out"
    assert main(["split", "--config", str(conf), "--ratings", str(ratings),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {conf}:4: config key 'neighbors' repeats line 1\n"
    assert not out.exists()


def test_split_warns_of_dropped_duplicate_ratings(tiny_inputs, tmp_path, capsys):
    ratings, _ = tiny_inputs
    ratings.write_text(ratings.read_text() + "1,1,2\n1,2,3\n")
    assert main(["split", "--ratings", str(ratings), "--format", "csv",
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "warning: 2 duplicate (user,item) ratings dropped (kept last)")


def test_train_refuses_a_corpus_that_loads_no_documents(tiny_inputs, tmp_path, capsys):
    _, corpus = tiny_inputs
    corpus.write_text("abc\tbattle army\n13\t  \n")
    out = tmp_path / "out"
    assert main(["train", "--corpus", str(corpus), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: no documents loaded from {corpus}\n"
    assert not out.exists()
