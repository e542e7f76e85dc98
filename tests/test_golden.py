"""Golden SHA-256 digests of CLI output.

Pins the exact bytes of every `sigeom figure` file and of the `surface`
tables and reports for a fixed set of in-contract profile specs (Bessel
arguments s*u <= 10), so that refactors and speed-ups can prove they left
every printed digit unchanged.  A digest here changes only when a value
does; update it together with a CHANGES.md line that says why.
"""

import hashlib

import numpy as np
import pytest

from exact_fit import check_fit
from mp_bessel import JET_BOUND, jet_error, modified_jet_errors, plain_jet_errors
from sigeom import RevolutionKind, RevolutionSurface, check_eigen_i, check_eigen_ii, make_grid
from sigeom.bessel import i0_jet, j0_jet, k0_jet, y0_jet
from sigeom.cli import main, parse_profile_spec
from sigeom.surfaces import _coordinate_laplacians

FIGURE_FILES = {
    "1a": ("figure1a.csv",),
    "1b": ("figure1b_i0.csv", "figure1b_k0.csv"),
    "2a": ("figure2a.csv",),
    "2b": ("figure2b.obj",),
    "3a": ("figure3a.csv",),
    "3b": ("figure3b.obj",),
}

FIGURE_DIGESTS = {
    "figure1a.csv": "d30a7bac309b1d1e8b9686790ae1e6ccf1552a7f6373b4fc3ce901856fdb5a04",
    "figure1b_i0.csv": "ab75ff1eed7808e600eb55f112f83feafe79c90ec4494125bd66e08f70495dd2",
    "figure1b_k0.csv": "9d85c289f6721b8e70fcffcf3b9dca618a36d975acfca2d44de01b7e0ad392e9",
    "figure2a.csv": "a8a97354c3a9bde2c900a4d18f4859fdad3d69d44ffd96063b6a6aadc621f350",
    "figure2b.obj": "587710b9815de164d6b54623f780329b4ce6d6ef1e358357c6000266f2859455",
    "figure3a.csv": "145a2c5883482fcc242f18ca96018ad2589b0ceda5ad60792c00e47d9910a97c",
    "figure3b.obj": "22464f099f2aae4679cf3939232738c6e080a9a0df7aa9c399b12999e6b31181",
}

# (profile spec, meridian kind, u range, v range, grid)
SPECS = {
    "bessel-j0": ("bessel:lambda=1,c1=1,c2=0", "timelike", "1:4", "-1:1", "21x21"),
    "bessel-jy": ("bessel:lambda=4,c1=1,c2=0.5", "spacelike", "0.5:4.5", "-1:1", "41x7"),
    "bessel-ik": ("bessel:lambda=-1,c1=0.5,c2=2", "timelike", "0.5:9", "-0.5:1", "64x5"),
    "expr-bessel": ("expr:f=j0(u)+0.25*i0(u/2)", "timelike", "1:6", "-1:1", "21x21"),
    "expr-elem": ("expr:f=u^2+3*ln(u)-sinh(u/4)+cosh(u/3)", "spacelike", "0.5:5", "-1:1", "21x9"),
    "log": ("log:lambda=-2,c=0", "timelike", "0.5:5", "-0.5:1", "21x21"),
    "power": ("power:lambda=1,mu=3,c=1", "timelike", "0.5:5", "-1:1", "21x21"),
    "consth": ("consth:h0=2,c1=1,c2=0", "spacelike", "0.5:5", "-1:1", "21x21"),
    "constk": ("constk:k0=1,c1=1", "timelike", "0.5:5", "-1:1", "21x21"),
}
ACTIONS = ("classify1", "classify2", "laplacian1", "laplacian2", "curvature")

# (exit code, sha256 of the output file) per (spec, action); 15 classify
# reports moved in lambda3 alone when r3 came to be fitted over the radii,
# and each classify report's r3 fit is checked against the exact least
# squares (check_profile_fit)
SURFACE_DIGESTS = {
    ("bessel-j0", "classify1"): (0, "536c591ac78b18278490e21f78b392e565f0800715f44acf3b4f6e905eec2936"),
    ("bessel-j0", "classify2"): (0, "286ead5722fffb7e3234838af7f621fd026bffc3c931f652ee6054b7fcbdeb3f"),
    ("bessel-j0", "laplacian1"): (0, "44ee6ccaa64c308d97e71d5b4c8f358db018cdf4cfda55a4f01783bd6cf5bf95"),
    ("bessel-j0", "laplacian2"): (0, "8044474a35aa2e4f465d1e46fa7c2ae05db088e82d5888b898df94e1420600ec"),
    ("bessel-j0", "curvature"): (0, "9b2752dd13a5efada18d714365c531ea405b48ccb93ded2ff56620e0b4b2a163"),
    ("bessel-jy", "classify1"): (0, "b3e3031a816f7a47e537e8759bbdce3e1fdb376926b6eef0324b2a1a23e2a539"),
    ("bessel-jy", "classify2"): (0, "6e6d148bcc42844f6e114a63585bef31cb402eae9d9220c10b72554151f95ac3"),
    ("bessel-jy", "laplacian1"): (0, "95fd78de3d3c0340d0d29818bdc0ba58d88e4e663a6833945b1e3d3697b1a2d8"),
    ("bessel-jy", "laplacian2"): (0, "c738638fb90e022ec211acba180b26f09bbcb2435e1f6d821e78c874cf7280aa"),
    ("bessel-jy", "curvature"): (0, "408231c63b977d32ce19f0cac5470f9f049682ba4cba44927c8b437f684bb36b"),
    ("bessel-ik", "classify1"): (0, "c390772946b8b34605c61a7083cecbeda41131069117ae3d85037c0ee46e7f85"),
    ("bessel-ik", "classify2"): (0, "4144269f45933e372a8b329d71c877fbc7e30e47c6a888cc0d603fe117812dd7"),
    ("bessel-ik", "laplacian1"): (0, "5a6a38b1a1e7b526b72423a91b455a19fb9a5700525cf10fb0aeed55e3ceeab8"),
    ("bessel-ik", "laplacian2"): (0, "adf2cabf9da9294cb224ae9971ca49793445be41e8bf687f95359f8b576e4800"),
    ("bessel-ik", "curvature"): (0, "0e4855dc8e300fff30271fb2ed3a7261481cba8f9fd1a60bb49220156bcb1727"),
    ("expr-bessel", "classify1"): (0, "ed49ee189c2f595e2f5be231d33b5cfcf4cb3ff924f1810a86d0895b68034ead"),
    ("expr-bessel", "classify2"): (0, "7f53a65fdd7b04395e9d2a5b3be133e6d2108291d56552e0ac53f067d096f7e1"),
    ("expr-bessel", "laplacian1"): (0, "ecf7e251bc2c7fdea35f71190c3baababf8c4f669747a6f2c5331af7e8d57405"),
    ("expr-bessel", "laplacian2"): (0, "3e6a5cfee8bb54a9b0da3772b1ad8207b9cf501e6d2edabd80c06bbc3d0b153a"),
    ("expr-bessel", "curvature"): (0, "b2c067d53bfb11eaddc0eaa8387f3c222d841bd4aed517dc7fc79d05526bbb42"),
    ("expr-elem", "classify1"): (0, "c8cfb1c938401ecfb3b1c26c943f785f9f683ce29be1e3e5c6bc99086f8bb158"),
    ("expr-elem", "classify2"): (0, "e3c1f5b4b1f60893f187656c7184a37bbdaf96a6ea9b2c11955842256420d82f"),
    ("expr-elem", "laplacian1"): (0, "f60cf5d671a55997835ee146480a784ec20299fb7b9db4b6d46b8b9000020491"),
    ("expr-elem", "laplacian2"): (0, "580d21ac84e01c5129c190dcbf6280f779f41612368d2a1726f6081628477b75"),
    ("expr-elem", "curvature"): (0, "7012e2b3a6e67dbfd935c2d56dddd8fcdb9ba6b206ed05e5775bd7699cc4796e"),
    ("log", "classify1"): (0, "ef44eb5a823dfe7923af8954799a043bc71df6f04163343e630d6b43bf7c50f6"),
    ("log", "classify2"): (0, "f77b33ec65743dd4e3e5707bd74bf98dd5614608f0310c92ddf2558905d01c2a"),
    ("log", "laplacian1"): (0, "d644973da3245e2481c34cb06a455201b6eabb28fb73bfdd6bb65a2f6d075fc4"),
    ("log", "laplacian2"): (0, "db2fbe367b8ff9da22f3f960d9505203c5487904b2130e10f02eca6b347524cf"),
    ("log", "curvature"): (0, "6fc37fe1c9dbfdad12bbfce77bb20c27a0815dacd618ece3d9945402a1bfb4dd"),
    ("power", "classify1"): (0, "2a6f1bdf9065f9e33a85abe74555b63734f81bade6f8c56fdc6454249a1a53fe"),
    ("power", "classify2"): (0, "fc20c2c3f58a03b0d1b17fb927f7a5617111b07b4b001530291ff1649430129d"),
    ("power", "laplacian1"): (0, "788be7140ce3b1eb9e037e6e78988de46f6534064b83f06ea16fce595d5f9af3"),
    ("power", "laplacian2"): (0, "89ccce4173f095c2f05faa0fdaff835063b703df963bad548e8c16aec6c5aa3a"),
    ("power", "curvature"): (0, "13b79a2a04f9f45a17cb0cb5ff71a5a13a7b01991b8029bd61cac38838d14d42"),
    ("consth", "classify1"): (0, "c903beae7a1171cc228fb106f0abb638424239152a16ae07a965d1ce5e8eb756"),
    ("consth", "classify2"): (0, "28892f85383708ab6ab87213576fe516256afadceefcd0d08d2157592a64b5e6"),
    ("consth", "laplacian1"): (0, "b4fb656ea87f5726da18dcfbb12eb5ab85bcf0f6b875c39f5483ea13541f7892"),
    ("consth", "laplacian2"): (0, "f330c06c4ec901ca942111c43008cc2e1e76d934317906f18e1d9ff16ee87df1"),
    ("consth", "curvature"): (0, "922c17a0bd8d7e0c9e61dd317c8dc5b2e605028bd40a46591cdc703586d5510c"),
    ("constk", "classify1"): (0, "81964994614567894605397c7e2d33a8d9b35b09287cf70930e4b045cbe8a893"),
    ("constk", "classify2"): (0, "57a978d3c3b66895d36739c03a4aa1efc7b47add246c1f9fc5dedebf0c3b8160"),
    ("constk", "laplacian1"): (0, "528a93533c62c1452538dcfb4633e6a06b0cb1c1f73c49518b5c1e5c683057a6"),
    ("constk", "laplacian2"): (0, "7243246e0d23361faffb2c91fbfca26eeb17944995011be9887e64d468836dfb"),
    ("constk", "curvature"): (0, "0616484cbe32247ddae3322f7f17985134fdab292e9adefcfcc69bd678e1fe93"),
}


# Outputs longer than one 4096-row block of the CLI writer, so a block
# boundary falls inside each: (spec, action, grid) -> sha256 of the file.
# A 101x101 mesh has 10,201 vertices and 20,000 faces.
LARGE_SURFACE_DIGESTS = {
    ("bessel-j0", "mesh", "101x101"): "9332f33cd406cfb00d58ffd440432d2ae465368452cd1bdd1fa8b122311f477e",
    ("bessel-j0", "laplacian1", "101x101"): "51f02b26bac7a12098c86550c0d548a254d095b0adfa6f473c80a411f09c2e0a",
    ("bessel-j0", "laplacian2", "101x101"): "f4918c4d99bc1ffb4b5c5342e5f7a21b3f920c939f7fa38569a9f96ed16e0b56",
    ("bessel-j0", "curvature", "8193x2"): "bb691bf13168b09645211a4c1b99b75dcd9b5e9941bc3b27d0dbccd054117a3e",
    ("expr-elem", "mesh", "101x101"): "78198a1ec74a826526bb13ef59b13ffc0f5078b6eaf6897de0ad0cf0cff4ab98",
    ("expr-elem", "laplacian1", "101x101"): "1e1f3d42f2aebfdac45e081d5bbce1c324fedbe7251c2552069a876d12b660fd",
    ("expr-elem", "laplacian2", "101x101"): "3734288c5eb9681ff7a4cb3e21a481aa981024e1cde5d1951c624cc5453dac36",
    ("expr-elem", "curvature", "8193x2"): "753711836a3b0f5c5b7eba514c9aee60c1fb059cb17681ae9703d577f8c24a5e",
    # one u row of 4099 points spans a block boundary; the writer prints the
    # u, v, d3 and z columns of these grids once per distinct value
    ("bessel-ik", "laplacian1", "5x4099"): "2c32e29099e74dfd43c7178a9e99d88f5006abdbc25cca642bfcd33b55860a88",
    ("bessel-ik", "laplacian2", "5x4099"): "43f7d5e8f9e92d1f56f8793930502d9c223b9eb772a9c765db0389224b01af83",
    ("bessel-ik", "mesh", "5x4099"): "5bba3dae014d028fd3a1b7640c13347c39169cad985f186e1d87f8b3a80a2876",
    ("bessel-j0", "laplacian1", "5x4099"): "02549569d912a30666c1c1706fbf6a7c5068d6eda4ec16bf469984b1fcc34402",
    ("bessel-j0", "laplacian2", "5x4099"): "812bc98007b41932f938782d82045ef11fd45a2981a2996bad8125a770626d03",
    ("bessel-j0", "mesh", "5x4099"): "6b44f60dc48ee0fd6b9b7cf0cc42c072e2e484b6c4bb673f0423fe073dd4e693",
    ("bessel-jy", "laplacian1", "5x4099"): "ccd21d0eab78d2f41b79dbad3ec0d374264cb939f5e1340522c2148decd5fba4",
    ("bessel-jy", "laplacian2", "5x4099"): "840a9a381fc861118538c1893a49b7b8de3151bf2ac5ecfd4b55f4ed3fae0aee",
    ("bessel-jy", "mesh", "5x4099"): "53a8b0bea3f2995506c7e06d362131cea37e0e0e40488052f6b5322b08c7b659",
    ("consth", "laplacian1", "5x4099"): "f4fe22cdd9116791b153349ef2545c4997800321bb581022e026af1dc510596b",
    ("consth", "laplacian2", "5x4099"): "cf8420c7972247f8102bc6ce1684564b1936129e780858e0157acdb2ca43a89c",
    ("consth", "mesh", "5x4099"): "7d1f950dcde395ad61566c1d47b6a109e6d7134cd653fdc5a4df581645ffd91c",
    ("constk", "laplacian1", "5x4099"): "39c7a226dd635f4dcf362e750594bae8068ba29dbef9ce86256a616c2f9f8aba",
    ("constk", "laplacian2", "5x4099"): "47c9fb883bfcd322d59b67798c4ff8f7d64646c6cf5af866653372b492d0d5af",
    ("constk", "mesh", "5x4099"): "7299d3fe3c509e037084f43721ccdb607d1961b897f551004fe01b73eca10604",
    ("expr-bessel", "laplacian1", "5x4099"): "8d3c4f10d81df8b43f5544b53a0ef5d2a542f39a3c3a309f644da8ec4ff7a370",
    ("expr-bessel", "laplacian2", "5x4099"): "709db5ae45b4be1f116cbaa7cdabf44bf002203c7649595275a30e6211c5667e",
    ("expr-bessel", "mesh", "5x4099"): "bb2479e741cb06a23f629c66f9c2d19d1e0c116fb028dcbf4ef114e04944c556",
    ("expr-elem", "laplacian1", "5x4099"): "f33d9b8f6269323c2046a7a48064d144d1edd250f20c331a1369799d2d7077c3",
    ("expr-elem", "laplacian2", "5x4099"): "ff0ff1f5b276381ddc3cfc651db999bcf5b3a3e060346c8385ddc22621b18af9",
    ("expr-elem", "mesh", "5x4099"): "8d3376a50b5c1e0c65eca8882b3240ff28e307f8d359271dd04f11859804fb3d",
    ("log", "laplacian1", "5x4099"): "9fffbcdc321647f0f9c9354212a6970bb78d71b8d3e1a95447ad13666242a7ac",
    ("log", "laplacian2", "5x4099"): "6e288fe7466db2a473a788826dd13b6a0f3676f73c0893965fb6a0d79546fca8",
    ("log", "mesh", "5x4099"): "0d80ae2cac2f2bb15cf74a21f402c82bd2d98a9f05555768486882b71394887b",
    ("power", "laplacian1", "5x4099"): "0b4dc1e9b572733ca0cab9c4a6ce9e2bab9c6c47591cfd595ef4d27bf2952bfb",
    ("power", "laplacian2", "5x4099"): "ae50b0a87a5b0c188077816a17e179f08b529721f803d665a141da56afc82fe1",
    ("power", "mesh", "5x4099"): "5ffe9ec0b9897e7246fef0cb49acc9f817846811ca43423672327e2cd78ecb61",
}

# one 4097-row `bessel` table per kind, all at |x| <= 25, each checked
# against mpmath at every 64th row; the jp table was taken again, and
# checked from then on, when J_p came to be summed in float64:
# kind -> (range, extra arguments, sha256 of the file)
LARGE_BESSEL_DIGESTS = {
    "j0": ("0:25", (), "2cd98879321d53900389f7ef3e9fd95a14d48c31c9c227c52967db019b0b28e3"),
    "y0": ("0.05:25", (), "6ef3390f113c44824b4da9207c2a37aa39352c1b2627ec19588b7abc893a529b"),
    "i0": ("-25:25", (), "a9f40f8040533e72f54c9f1983310dc7b51a6f97084121baf1a22bc217479ce6"),
    "k0": ("0.05:25", (), "ea9d1895b7085b7bfd06860a2783c01020fa95e98327231391b113af91193620"),
    "jp": ("0:25", ("--p", "0.3"), "3342ca279273905d50cf9f6d8357a437bcc6388a6626752ca399b587ebfd907e"),
}


# the Bessel jets of the profiles whose digests moved when the Y0 and K0
# jets became the merged sums of the values, again when f'' and f''' of
# every Bessel jet came from the Bessel equation, again (bessel-ik) when
# K0 came to be summed in float64, again (bessel-ik, expr-bessel) when I0
# came to be four plain float64 rows, and again (all four) when J0 and Y0
# came to be summed in float64 and the I0 rows came to be f, f'/h, f'' and
# f'''/h, and again (bessel-ik, at radii from u = 2) when K0 from x = 2
# came to be the trapezoidal rule on its integral: (mpmath kind, jet,
# scale s) of each jet the profile takes at s u.  The figure 1a, 2a and 2b
# digests and the j0, y0 and i0 tables moved with them, figure 1b's K0 file
# and the k0 table with the last, and the classify1 reports of profiles
# that fit no eigenvalue when their note came to name the scaled bound.  Each digest test also
# checks those jets at the surface's radii against mpmath, to the bound of
# tests/mp_bessel.py
PROFILE_JETS = {
    "bessel-j0": (("j", j0_jet, 1.0),),
    "bessel-jy": (("y0", y0_jet, 2.0), ("j", j0_jet, 2.0)),
    "bessel-ik": (("k0", k0_jet, 1.0), ("i", i0_jet, 1.0)),
    "expr-bessel": (("j", j0_jet, 1.0), ("i", i0_jet, 0.5)),
}


def check_jets(kind, jet, xs, where):
    """Every jet at xs within the bound of tests/mp_bessel.py."""
    for x, got in zip(xs.tolist(), np.array(jet(xs)).T):
        if kind in ("j", "i"):
            assert max(plain_jet_errors(kind, 0.0, x, got)) <= JET_BOUND, (where, x)
        else:
            assert jet_error(kind, x, got) <= JET_BOUND, (where, x)


def spec_surface(name):
    """The surface of SPECS[name] and the grid its surface actions sample."""
    spec, kind, u, v, grid = SPECS[name]
    u_range, v_range = (tuple(float(e) for e in r.split(":")) for r in (u, v))
    s = RevolutionSurface(parse_profile_spec(spec), RevolutionKind(kind), u_range, v_range)
    return s, make_grid(s, *(int(n) for n in grid.split("x")))


def check_profile_jets(name, grid=None):
    if name not in PROFILE_JETS:
        return
    surface, spec_grid = spec_surface(name)
    nu = int((grid or SPECS[name][4]).split("x")[0])
    us = np.concatenate((np.linspace(*surface.u_range, nu)[:: max(1, nu // 400)], spec_grid.u))
    for kind, jet, s in PROFILE_JETS[name]:
        check_jets(kind, jet, s * us, name)


def check_profile_fit(path, name, action):
    """The report at path is check_eigen_i/ii's, and its lambda3 and
    residual3 are the exact least squares of r3 on the grid within the
    bound of tests/exact_fit.py."""
    s, g = spec_surface(name)
    form = int(action[-1])
    rep = (check_eigen_i, check_eigen_ii)[form - 1](s, g)
    assert rep.to_text() == path.read_text()
    f0, _, c, _ = _coordinate_laplacians(s, g.u, form, value=True)
    check_fit((rep.lam[2], rep.residual_sup[2], rep.residual_rel[2]), c, f0, g.u.size)


def check_values(path, kinds, step=1, xcol=0, p=0.0):
    """Every step-th row of the CSV file at path: the columns after column
    xcol, the values `kinds` at its x (the order-0 kinds, or "jp" of order
    p), within the bound of tests/mp_bessel.py, I0 and K0 relative to
    mpmath, J0, Y0 and J_p against max(1, |f|)."""
    rows = [r for r in path.read_text().splitlines() if r[0] not in "#x"]
    for row in rows[::step]:
        x, *values = list(map(float, row.split(",")))[xcol:]
        for kind, value in zip(kinds, values):
            if x == 0.0:  # I0(0) = J0(0) = 1, J_p(0) = 0 for p > 0
                assert value == (0.0 if kind == "jp" else 1.0), (path.name, kind)
            elif kind in ("i0", "k0"):
                assert modified_jet_errors(kind, abs(x), (value,))[0] <= JET_BOUND, (path.name, x)
            elif kind == "y0":
                assert jet_error(kind, x, (value,)) <= JET_BOUND, (path.name, x)
            else:
                order = p if kind == "jp" else 0.0
                assert plain_jet_errors("j", order, abs(x), (value,))[0] <= JET_BOUND, (path.name, x)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def surface_digest(tmp_path, name, action, grid=None):
    spec, kind, u, v, spec_grid = SPECS[name]
    grid = grid or spec_grid
    out = tmp_path / f"{name}-{action}.txt"
    rc = main(["surface", "--profile", spec, "--kind", kind, "--u", u, "--v", v,
               "--grid", grid, "--action", action, "--out", str(out)])
    return rc, _sha(out.read_bytes() if out.exists() else b"")


def figure_digests(tmp_path, fid):
    assert main(["figure", fid, "--out-dir", str(tmp_path)]) == 0
    return {name: _sha((tmp_path / name).read_bytes()) for name in FIGURE_FILES[fid]}


@pytest.mark.parametrize("fid", sorted(FIGURE_FILES))
def test_figure_digests(tmp_path, fid):
    got = figure_digests(tmp_path, fid)
    assert got == {name: FIGURE_DIGESTS[name] for name in FIGURE_FILES[fid]}
    if fid == "2b":  # its mesh heights are the f of J0 jets on [1, 4]
        check_jets("j", j0_jet, np.linspace(1.0, 4.0, 41), fid)
    if fid == "1b":  # I0 on [-3, 3] and K0 on [0.05, 3], its values at 200 x
        check_values(tmp_path / "figure1b_i0.csv", ("i0",))
        check_values(tmp_path / "figure1b_k0.csv", ("k0",))
    if fid == "1a":  # J0 and Y0 on [0.05, 10] at 200 x
        check_values(tmp_path / "figure1a.csv", ("j0", "y0"))
    if fid == "2a":  # the curve (0, u, J0(u)) on [1, 4]
        check_values(tmp_path / "figure2a.csv", ("j0",), xcol=1)


@pytest.mark.parametrize("action", ACTIONS)
@pytest.mark.parametrize("name", sorted(SPECS))
def test_surface_digests(tmp_path, name, action):
    assert surface_digest(tmp_path, name, action) == SURFACE_DIGESTS[(name, action)]
    check_profile_jets(name)
    if action.startswith("classify"):
        check_profile_fit(tmp_path / f"{name}-{action}.txt", name, action)


@pytest.mark.parametrize("name, action, grid", sorted(LARGE_SURFACE_DIGESTS))
def test_surface_digests_past_a_block(tmp_path, name, action, grid):
    digest = LARGE_SURFACE_DIGESTS[(name, action, grid)]
    assert surface_digest(tmp_path, name, action, grid) == (0, digest)
    check_profile_jets(name, grid)


@pytest.mark.parametrize("kind", sorted(LARGE_BESSEL_DIGESTS))
def test_bessel_digests_past_a_block(tmp_path, kind):
    rng, extra, digest = LARGE_BESSEL_DIGESTS[kind]
    out = tmp_path / f"bessel-{kind}.csv"
    argv = ["bessel", "--kind", kind, "--range", rng, "--n", "4097", "--out", str(out)]
    assert main([*argv, *extra]) == 0
    assert _sha(out.read_bytes()) == digest
    check_values(out, (kind,), step=64, p=float(extra[1]) if extra else 0.0)
