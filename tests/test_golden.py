"""Golden CLI snapshots: the sha256 and byte length of stdout for the
README examples and for argv that reach each shared kernel (generator
search, quadratic-root order, orbit minimal polynomial, Rabin test),
plus the modulus make_field picks for a spread of fields.  Any change to
these bytes is a change of behaviour, not a refactor.
"""

import contextlib
import hashlib
import io

import pytest

from fpt.cli import main
from fpt.gf import make_field

# argv (space-joined) -> (exit code, stdout bytes, sha256 of stdout)
CLI_GOLDEN = {
    'planes count --p 3 --m 6': (0, 81, 'fa68c308c0951cd1755bbb8c2875279defb3233102d51699233005ae51178373'),
    'planes zvalues --p 3 --m 5': (0, 282, '0296804782af45b3d9d7fb5d6840b16b40c49fb83d498a90cb0cc8624e41a366'),
    'planes pencil --p 3 --m 4 --z 1': (0, 107, 'f5cdcfa7a1f4cd1ea3eb07c06245228c893b95289284ca368d49420a25baf51f'),
    'fmp build --p 11 --m 20': (0, 133734, '8d26d550bf4c877b4543b16ad7e037b2d20ec0a78c3583758370205bbd0ca99a'),
    'fmp eval --p 19 --m 6 --z 16': (0, 32, '18a3de6a3e30fe20ffea3597714eef0b037630fe338fe8b8260eb251c81a7ba2'),
    'fmp gcd --p 3 --m 6 --n 9': (0, 47, '38fecb36d09236a225b7b7815626faa3ca8a0c09aafb7cb0165b209b9ab45622'),
    'zigzag zeck 64': (0, 48, 'ae7c18dd70b71bc3baa24bbe6168c65d722c46dc5018d863da31d3489c471ae4'),
    'zigzag rep --kind negafib -- -43': (0, 49, 'ca87dbf13a620cf6324785754384052138caefa4acaff75d615e655e15ddc268'),
    'zigzag enum --n 4': (0, 112, '575a5cb934414583bfa6cf79d9369f545335ba589503791c00e2f447e887cc14'),
    'alpha table --p 19': (0, 362, '0c3d41e3adb8d0aff0919b811f6f9e8576840923a8a21341db04fbec0395af3c'),
    'alpha classical --n 11': (0, 20, 'd719ddae83dd586878f2e333b9c774fa14d11a1fc1489be542492ab9c80e941a'),
    'alpha density --limit 100000': (0, 130, '0cf36330123753d1444f3e99c92fea84edeec7928fba8116f8843026790028c7'),
    'alpha carmichael --m 10 --limit 10000': (0, 34, '1791bfff45be289fc76be0c62610cc7d3266b56bb42c19c7c18319e1ac398e08'),
    'trinomial verify --p 19 --a 1 --b 4': (0, 126, 'baf29c2668e9fba6e2df7da67c801ed6d29290ffe3c5fe7928262e435ded190c'),
    'trinomial generate --p 19 --m 9': (0, 56, '93de9a80bbd2d57783b9b29fe4b6aaec97f10cb54174f1f79b76ef8c8a6d5d96'),
    'trinomial frob2 --p 5 --z 1': (0, 90, 'b59bef418998f5accd28db8544613e7972f21f349bc5ea889a92558ceb8dc533'),
    'mv poly --kind B --k 2': (0, 42, '9bec5ad3409c0ce67b6ef4621f69e8152dca06eb2bbb4d5da693d6c4cd796cf9'),
    'mv apparition --p 19 --z 16': (0, 41, '7348fc8d6fd9658ac83e49940fb0d2d6c3723695ea8814063ddd07a23a46d933'),
    'verify appendix --p 3 --m 5': (0, 66, '3a9d5549e056ebef993356c60adc752a456fd334b761c743259bd04613fef2d1'),
    'trinomial generate --p 7 --m 3': (0, 38, '05ab64ead03d10a3afa5c8fab93dfcc995143d72e6b33ced5f660807daa8be64'),
    'trinomial generate --p 5 --m 3': (0, 38, 'ec20daefacea2a3bf40700c036256b7a4f99a7c669c4315ee42aefe94c5713ca'),
    'trinomial generate --p 5 --m 6': (0, 44, '7a97d976cffa1f8d3313d277f6f18146e4892c305880143a82db72dcdd99b7d6'),
    'trinomial predict --p 19 --a 1 --b 0': (0, 78, '9e203db38fefd9d16f45c70a4d3bd16be2421b8beacf6a0bdfdeeacc8bc2d9fa'),
    'trinomial predict --p 19 --a 1 --b 1': (0, 89, '66e018f306d0efda31cf7b9d18c14d1da62c420b4b03f3010d6fcc3174a3d9f5'),
    'trinomial predict --p 19 --a 1 --b 3': (0, 78, '66ce8fca0c72dbace18c3a9d819728ec14aa1ede5beb51ba9bdf079432fbfb37'),
    'trinomial predict --p 19 --a 1 --b 14': (0, 87, '562060523bdd87e9fc7c43d7b09ddf031aad1a5b288c75c696d78d4e718e4a13'),
    'trinomial verify --p 19 --a 1 --b 0': (0, 109, 'ffc3eafa77b4b26f9b0e390dc67eabd324d4f70cd549463e2b8b2fc58637f8b8'),
    'trinomial verify --p 19 --a 1 --b 1': (0, 126, '56f514b59bd4751e12101565d3577405c619049c3efb0b605fd7b4cbf2ad63e8'),
    'trinomial verify --p 19 --a 1 --b 3': (0, 108, 'd6ae5894a6597ea67c034edc46607f2ea3d4f6bc999518b2c17cab4024a62ba4'),
    'trinomial verify --p 19 --a 1 --b 14': (0, 124, 'a9bfbe6625ff79ff9f51635e1efe75243fc807f4e0af6855c2bbf26051a857ac'),
    'trinomial predict --p 2 --a 1 --b 0': (0, 76, '8d4d06d8fae83f29e49c72347186cbf0af8a9304f2a7881c190e3f354816b3d7'),
    'trinomial predict --p 2 --a 1 --b 1': (0, 76, '237c76a96b6a8a443e7d1f79936e227b5b84342287bc375b5317dd538192f2a5'),
    'trinomial verify --p 2 --a 1 --b 1': (0, 106, '5f3f60ba3ab31ed59576b39ef8b0460571e17c93701fd3ecf85a2e3db6a53d03'),
    'trinomial predict --p 103 --a 1 --b 1': (0, 80, '34ff57ee4c7ef7e2024365e089a2d66e3f45ac94071a9a495d2278bf7e3cdb6e'),
    'trinomial verify --p 103 --a 1 --b 1': (0, 112, '5e4e308c8f303814ce393162463d72127f95313fa62982cd449f7c048c3da375'),
    'planes count --p 2 --m 6': (0, 78, '2b3b9c94af1f820dacbc1b67a4f9aff101859ee427aa0e900b254b2757b27edc'),
    'alpha table --p 2': (0, 36, '6843feecf734350c2799f0d304836d5f3a2f8d1b0ed27ce02adc699a92faedfa'),
    'planes zvalues --p 2 --m 8': (0, 1572, '4a8a2c6c8ca564a98e29a0c2232e71975a2a6e0dedf169b45bcb44f28ff28c11'),
    'planes zvalues --p 3 --m 7': (0, 2954, '6facb45be76eee07e10434c258c50802c827a7c9c8be9408a969e11010cd292e'),
    'planes zvalues --p 11 --m 4': (0, 281, '22a4db421b76e8493b1dceaa3ca18d19f4c05041881acd78e67e3f51c06aae02'),
    'planes pencil --p 3 --m 6 --z 0': (0, 49, '5de0622b99556903857b3b973d2d0815fbfcd97e5a1e82b27c7083b26e93440f'),
    'planes pencil --p 13 --m 3 --z 12': (0, 275, '6dc76c823edbddeaa99706dd900dd32f35ddfd39eb7bfb4d2698c85f63e7bf06'),
    # F_{2^8} has no valid nonzero z (eval_fp(8, 2, 1) != 0): its z = 0
    # pencil, its refusal of z = 1, and the z = 1 pencil of F_{2^9}
    'planes pencil --p 2 --m 8 --z 0': (0, 57, '3738a30d864b68aa8e11b98a25cf5cd857b7c9485398e3bd66786af1bd13da98'),
    'planes pencil --p 2 --m 8 --z 1': (1, 0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'planes pencil --p 2 --m 9 --z 1': (0, 145, '6f8810b68ebddb559e3a582960da733aaba2f71893dd238e0e6eebb0544477c3'),
}
# (p, m) -> the modulus make_field picks, constant term first
MODULI = {
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 13): (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 14): (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 15): (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 16): (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1),
    (3, 8): (2, 0, 1, 0, 0, 0, 0, 0, 1),
    (3, 9): (1, 0, 1, 2, 0, 0, 0, 0, 0, 1),
    (3, 10): (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (7, 4): (1, 1, 0, 0, 1),
    (11, 3): (4, 1, 0, 1),
    (101, 2): (2, 0, 1),
    (251, 2): (1, 0, 1),
    (19, 9): (2, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 40): (2, 1) + (0,) * 38 + (1,),
}

@pytest.mark.parametrize("argv", sorted(CLI_GOLDEN))
def test_cli_stdout_matches_snapshot(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv.split())
    data = buf.getvalue().encode()
    assert (code, len(data), hashlib.sha256(data).hexdigest()) == CLI_GOLDEN[argv]


def test_modulus_table_matches_snapshot():
    assert {pm: make_field(*pm).modulus for pm in MODULI} == MODULI
