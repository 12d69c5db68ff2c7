"""Byte-identity of the CLI's reports against recorded digests.

Each case runs one `compute` or `verify` command in-process and hashes its
stdout together with its exit code.  The digests were recorded before the
test-only surfaces left `src/exacthom`, so any change to a table, a
certificate name, a witness or the report layout shows up here.
"""

import hashlib

import pytest

from exacthom.cli import main

BOUNDS = ["--max-degree", "3", "--max-weight", "3"]

COMPUTE = {
    f"compute {theory} {name}{' A' if co else ''}":
        ["compute", "--preset", name, "--theory", theory, *BOUNDS,
         *(["--coefficients", "A"] if co else [])]
    for name in ("trunc3", "dual-numbers")
    for theory in ("hochschild", "harrison", "gamma", "symmetric",
                   "comparison")
    for co in ((False, True) if theory in ("hochschild", "harrison")
               else (False,))
}
COMPUTE["compute gamma trunc3 csv"] = [
    "compute", "--preset", "trunc3", "--theory", "gamma", *BOUNDS,
    "--format", "csv"]

VERIFY = {
    f"verify {suite} trunc3":
        ["verify", "--suite", suite, "--preset", "trunc3", *BOUNDS,
         *(["--max-n", "5"] if suite == "eulerian" else [])]
    for suite in ("eulerian", "hodge", "augsplit", "harrison", "barr",
                  "pruning", "gamma-iso", "comparison", "les")
}

# gamma-iso at its own presets, where both checks read dual-numbers
VERIFY["verify gamma-iso"] = ["verify", "--suite", "gamma-iso"]

CASES = {**COMPUTE, **VERIFY}

EXPECTED = {
    "compute comparison dual-numbers":
        "f1f2772998af179adf6d5d9cbe1c3fd012d6e1486fa7eef88116fa870972bbe2",
    "compute comparison trunc3":
        "848320efa5adba89723b7ef0234729a0649445d3a8da6e8083a88cfba677de9e",
    "compute gamma dual-numbers":
        "74b03cb0ec555d30d238a7e3b4cb225c72547812ed8ef9638d011db38b43a61e",
    "compute gamma trunc3":
        "783362a7977282b3e9b49359fe2e5b054c15be2e7e3f2d9ec3033928e2e0ca00",
    "compute gamma trunc3 csv":
        "f8aec40f4780cd7ac738024ed34fecfa05e5b16e2211fcc1f3b04de60c9ebc7a",
    "compute harrison dual-numbers":
        "0e990b75a610de86b56371561b0759ba1dc58846bc7bf3fbe8fb7f6d6955f40a",
    "compute harrison dual-numbers A":
        "c99f9b3f7babbda3a0c84a3872ebeecee927be2af58400a823940a2e7975085c",
    "compute harrison trunc3":
        "00f13b0926e3a37c862714107251a51d6f5b6c3adc4e8075f98e19d1284ee42b",
    "compute harrison trunc3 A":
        "1d6599e72e1114f3b89a716d7a22d23420ee9a2ab45a801dc412d641d6e6bbcf",
    "compute hochschild dual-numbers":
        "aaf5c5bfb98045d067cdda3ec20a13aafaa254fe68182a3c1bea63852da8b902",
    "compute hochschild dual-numbers A":
        "e7d18b37460a110005c9c1bdcf3ad905f58cb1ae6333687da3414a1dc7b92724",
    "compute hochschild trunc3":
        "7cca5e8ba02a330eb085663ee35d3c099075b1d5080cf3f4f1a011f8fde08fe0",
    "compute hochschild trunc3 A":
        "61461d15c49c895aa89be8aca599689261f1e293b06d67286d6d818d0f2e6427",
    "compute symmetric dual-numbers":
        "451b2bcbd73d5c212e455c64c5362824eafeb39fd8357abcfdbcdbc796b492b5",
    "compute symmetric trunc3":
        "5b12b8c2af6fda1aac58bf6d6bce08cd57173c0162302e8f13e6cc169c57a0d2",
    "verify augsplit trunc3":
        "0b149236e01476f119c4513131b9b56e8da26b3dad8658bd521bb53044d4b1c1",
    "verify barr trunc3":
        "1325f0faa2d4bec36b4937597d3c19caa8a16618cbe9ced2adc8f34de5627521",
    "verify comparison trunc3":
        "52fd01bb81cdb19c32f03d97b3dbf7df3197761f91a2338c25b3ae949257e8db",
    "verify eulerian trunc3":
        "e7ee8a2fae95980adbaebc7591fe1d1220ca9b90ef026f4aa9c5d7f25bc22508",
    "verify gamma-iso":
        "057ed040c4cad10d0b70c3b5e792eece1d3a33fed77b552c3d443c8e62425bd5",
    "verify gamma-iso trunc3":
        "92bfe74f0c55dd3bb8f79cfba416ebd849d1c7241023b378ee9504be5c5a6909",
    "verify harrison trunc3":
        "c28668c1e7cd1c054c55d470414b1813245d8f9a4036ff0db436bafd705aaec0",
    "verify hodge trunc3":
        "f2a847e10dad59b0f180ecee371d5d58c987c49135260f87ed844c0375f530b6",
    "verify les trunc3":
        "6d953d4e4c8f11ae89876e3c4eeec303913a9c50069781d67d7165c1409771f5",
    "verify pruning trunc3":
        "b8d4ff6423a6ec16455235c1dd8f4ff9a44dac104499de4d1749dbab6fa82dd3",
}


def report_digest(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_recorded_digest(case, capsys):
    assert report_digest(CASES[case], capsys) == EXPECTED[case]
