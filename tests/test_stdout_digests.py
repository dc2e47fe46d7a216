"""Pinned SHA-256 digests of CLI stdout: a refactoring that changes one byte
of these outputs fails here.

No digest depends on a solver: `factorize` fits by closed-form best replies
in numpy, and `lhv-fit` builds its model and bound in closed form (the last
`lhv-fit` case is below the model's size, so the compass search runs).
"""

import hashlib

import pytest

from bellmodel.cli import main

JITTERED = "--angles=0.01,1.6,0.8,-0.75"
SKEWED = ("--settings", "0.1,0.2,0.3,0.4")
#: (a0, shared, b1) and settings of a `bell` run other than the built-in example
BELL_OFF_DEFAULT = ("--angles", "0.1,0.9,2.5", "--settings", "0.2,0.5,0,0.3")

PINNED = [
    (("measure", "--format", "csv"),
     "14494d36f739d93065405fa5cab2789142442c4db0bf772a6dc884d85120db48"),
    (("measure", "--format", "json"),
     "8be0e14222b2b5519cab08e8d6a85e7abf2384b707a39cf644927380ae9e1990"),
    (("measure", "--format", "table"),
     "f51a8e175bdfbca4a4e63369ed2563e97b030cd7644ab2721406acdd6346afff"),
    (("measure", JITTERED, *SKEWED, "--format", "csv"),
     "e8cd845b584f1aa9ab2e39c099484f6e9f2fbb618ee5e07beb5ed17c4f447c3b"),
    (("measure", JITTERED, *SKEWED, "--format", "json"),
     "9ee91b69da33cb09de624f467a9bad9e0df67f61997b0146664fddeca8ef98f6"),
    (("measure", JITTERED, *SKEWED, "--format", "table"),
     "1e6d856e878ea368c6e5b3786e4c126c3f8dfa3fbbd14c6ef4f39389c4e8ddfb"),
    (("chsh", "--mode", "conditional", "--format", "json"),
     "41a1caed6e29b3ba7f6d83f8bb9250b2a54fd717278cd4c1e65858e4f717322e"),
    (("chsh", "--mode", "partial", "--format", "json"),
     "35470846c0ed736a0999a106618c1bc0fc36d3c396eadfbad2e79e7d49ffbecc"),
    (("chsh", JITTERED, *SKEWED, "--mode", "partial", "--format", "json"),
     "32d8f41d0ef0169aced5489f80529d18365dca27b6250f19f8aaddb39d491d36"),
    (("chsh", "--mode", "conditional", "--format", "table"),
     "001fe18b95da58f63f95b77f015940edee0524b1f926b989ee069912917d269c"),
    (("chsh", "--mode", "partial", "--format", "table"),
     "8ee95c60544e3e81c219d4891c73495bc5e645074a9b47b763388e731607bab0"),
    (("chsh", JITTERED, *SKEWED, "--mode", "conditional", "--format", "json"),
     "1a42b7baebcf677258318e799c3ca3e37c7533df821f94d0956007fd83472689"),
    (("nosignal",),
     "6eedcaa35a0b525fc020556589c25a1fffebaab228c5cfb17bafd9116ccd7f78"),
    (("nosignal", "--format", "json"),
     "ed1abbe3162285afe33bae7df4ea3f652b2c5a1257226c528d0528ed8ca8539b"),
    (("nosignal", JITTERED, "--settings", "0.5,0,0.25,0.25", "--format", "json"),
     "3fa29a7f349741e1b14ce3f98425590753a7d4749b49456cc9d987b0a6613aca"),
    # the (a0, b1) pair has probability 0, so the table lists it as skipped
    (("nosignal", JITTERED, "--settings", "0.5,0,0.25,0.25", "--format", "table"),
     "f0c9bce025b70555fe7e19bd1b276a05adcdaf99353fcb956773bef01e8daf12"),
    (("bell",),
     "0294e32fc22087a7dfdfe3aa8b3fbeb87a8fa916f754fa3dc994d0eb08fd0c3b"),
    (("bell", "--format", "json"),
     "35fb92d354fcfcaf8f2428fe867fa04bf00ffa5f51dd591fdfc06dc7eb4c93ca"),
    (("bell", *BELL_OFF_DEFAULT, "--format", "json"),
     "d3fed3c649d0cacf840ee6bd855f0f40e9e38c02a875b0064b6c585344cd26f5"),
    (("bell", *BELL_OFF_DEFAULT, "--format", "table"),
     "b70e4cb8f18db435687d2e8bcc86a0802f3d4dc7ade2c708f4096517fdf7ae4e"),
    (("factorize",),
     "f8f9e3b398110e931b0271e5287c921bed88448ff32ff919df3a0c4f7255c076"),
    (("factorize", "--format", "json"),
     "a73f4e350c406d7e8702a036fe8f0c3176fa7c3701b146cf80be412d84216010"),
    (("factorize", JITTERED, "--format", "table"),
     "03247b85d092d1f54eb054ba1c061f0c0a67b118d4449793f5708604c68dfa71"),
    (("lhv-fit",),
     "b8b5e1cbb9cfcd24f203c1a66b13b4eb1dfb99ab502ac513c8c33056dc4b9496"),
    (("lhv-fit", "--format", "json"),
     "c4c96060ed87e619a5289181f8cd7c74f23c1178d661ded0f60aeae85989e0ce"),
    (("lhv-fit", "--angles=0.4,2.9,1.1,0.25", "--grid", "3", "--restarts", "1", "--seed", "5",
      "--format", "json"),
     "f9eea3e6ee2d9e21385160e185320cf35dcf50862ef0a6246d572163595c9e9e"),
    (("witness", "--format", "json"),
     "c05476905a87c4cf6b667e38568ff1b29e4143d9961d0384210208ea72f47176"),
    (("witness", "--format", "table"),
     "a93df36f1088ce0798e70209e5cbcaacfbc9a32375248a1085fdc1921223fb10"),
    (("sample", "--n", "20000", "--format", "csv"),
     "f57ffbc3b317bff739b6a726469135c02873c83924f631174d53c091201fb452"),
    (("sample", "--n", "20000", "--format", "json"),
     "bde691cd3d6539b4b92ed4eefbb89233c623070cd381c87618f5a88977e1d1de"),
    (("sample", JITTERED, *SKEWED, "--n", "20000", "--seed", "99", "--format", "csv"),
     "c7118fd9f95829dc511d32d07e36782c4276cb65a18ce8c5397e98b2b114b2b7"),
    (("sample", JITTERED, *SKEWED, "--n", "20000", "--seed", "99", "--format", "json"),
     "4de26b578c9d2594ea7cc3521630d6bd5e9072f970e3020e194d973337e096bf"),
    # 200000 trials cross three CHUNK boundaries of the sampler and the CSV writer.
    (("sample", "--format", "csv", "--n", "200000"),
     "b9132eb4ff150fcb27f90d36e4e786fe386c2f2a17144f963528f4efbeea8137"),
    (("sample", JITTERED, *SKEWED, "--n", "200000", "--seed", "99", "--format", "csv"),
     "02e9abbb3905ca2e5c1bb6d9138df8fffead8de0c3ebbdc97ef0dca595020481"),
    # The last index, 10**6 or 10**5, gains a digit inside a chunk of the CSV writer.
    (("sample", "--format", "csv", "--n", "1000001"),
     "3a535ac45db4b076200dee831664ca1f656add51107ce306359b77a997021186"),
    (("sample", JITTERED, *SKEWED, "--seed", "99", "--n", "100001"),
     "9909cc9a268529ba6a2dfe95d967b82e9e575712c2f054e26e6e8a9b2b0b57da"),
    # The summaries count the cells one CHUNK at a time, so 200000 trials cross
    # three counting boundaries as well.
    (("sample", "--format", "table", "--n", "200000"),
     "edc8697700afb45635dd945be609c657b900b033197330d73b5c34cd8960e76c"),
    (("sample", JITTERED, *SKEWED, "--n", "200000", "--seed", "99", "--format", "table"),
     "8eea85591af826d7490700ca2575ae1f71c890aefcbea54ae1ac44094cea7eda"),
    (("sample", "--format", "json", "--n", "200000"),
     "646a332274f191bb28a745b0b53804b195926ccba69d711b34b7c99001ce0267"),
    (("sample", JITTERED, *SKEWED, "--n", "200000", "--seed", "99", "--format", "json"),
     "3e1fb3d4751b4694b4793bd3d80cdc92c899549e1d36446eb41c0a791b1a6d96"),
]


@pytest.mark.parametrize("argv, digest", PINNED, ids=[" ".join(a) for a, _ in PINNED])
def test_stdout_digest_pinned(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
