"""Finite-difference oracles used to cross-check jet coefficients against
values computed without any Taylor machinery."""

H = 1e-4


def _central(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


def richardson(f, x, h=H):
    """First derivative by central differences with one Richardson step."""
    d1 = _central(f, x, h)
    d2 = _central(f, x, h / 2)
    return (4 * d2 - d1) / 3


def second(f, x, h=H):
    return (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)


def mixed(f, x, y, h=H):
    """d^2 f / dx dy for a two-argument function."""
    return (f(x + h, y + h) - f(x + h, y - h)
            - f(x - h, y + h) + f(x - h, y - h)) / (4 * h * h)


def fd_first_partials(field, z0, zb0, t0):
    """(u_z, u_zbar, u_t) by off-slice finite differences."""
    u_z = richardson(lambda z: field.jet_at(z, zb0, t0, 0).value, z0)
    u_zb = richardson(lambda zb: field.jet_at(z0, zb, t0, 0).value, zb0)
    u_t = richardson(lambda t: field.jet_at(z0, zb0, t, 0).value, t0)
    return u_z, u_zb, u_t


def fd_second_partials(field, z0, zb0, t0):
    """(u_zz, u_zbzb, u_tt, u_zzb, u_zt, u_zbt) by finite differences."""
    u_zz = second(lambda z: field.jet_at(z, zb0, t0, 0).value, z0)
    u_zbzb = second(lambda zb: field.jet_at(z0, zb, t0, 0).value, zb0)
    u_tt = second(lambda t: field.jet_at(z0, zb0, t, 0).value, t0)
    u_zzb = mixed(lambda z, zb: field.jet_at(z, zb, t0, 0).value, z0, zb0)
    u_zt = mixed(lambda z, t: field.jet_at(z, zb0, t, 0).value, z0, t0)
    u_zbt = mixed(lambda zb, t: field.jet_at(z0, zb, t, 0).value, zb0, t0)
    return u_zz, u_zbzb, u_tt, u_zzb, u_zt, u_zbt
